#include "src/kconfig/dotconfig.h"

#include <sstream>

namespace lupine::kconfig {
namespace {

constexpr char kPrefix[] = "CONFIG_";
constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;

bool NeedsQuotes(std::string_view value) {
  if (value == "y" || value == "n" || value == "m") {
    return false;
  }
  for (char c : value) {
    if (!(std::isdigit(static_cast<unsigned char>(c)) || c == '-' || c == 'x' ||
          (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F'))) {
      return true;
    }
  }
  return false;
}

// Strips surrounding double quotes if present.
std::string Unquote(const std::string& s) {
  if (s.size() >= 2 && s.front() == '"' && s.back() == '"') {
    return s.substr(1, s.size() - 2);
  }
  return s;
}

}  // namespace

std::string ToDotConfig(const Config& config, const OptionDb* db) {
  std::ostringstream out;
  out << "#\n# Automatically generated file; DO NOT EDIT.\n# " << config.name() << "\n#\n";
  std::vector<const std::string*> names;
  const std::vector<OptionId> ids = config.EnabledIdsByName(&names);
  for (size_t i = 0; i < ids.size(); ++i) {
    const std::string_view value = config.ValueOfId(ids[i]);
    out << kPrefix << *names[i] << "=";
    if (NeedsQuotes(value)) {
      out << '"' << value << '"';
    } else {
      out << value;
    }
    out << "\n";
  }
  if (db != nullptr) {
    for (const auto& option : db->options()) {
      if (option.option_class != OptionClass::kNotSelected && !config.IsEnabled(option.name)) {
        out << "# " << kPrefix << option.name << " is not set\n";
      }
    }
  }
  return out.str();
}

Result<Config> ParseDotConfig(const std::string& text) {
  Config config;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Trim leading whitespace.
    size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos) {
      continue;
    }
    line = line.substr(start);
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      // "# CONFIG_FOO is not set" is valid and meaningful but parses to the
      // absence we already have; other comments are skipped.
      continue;
    }
    size_t eq = line.find('=');
    if (eq == std::string::npos || line.compare(0, kPrefixLen, kPrefix) != 0) {
      return Status(Err::kInval,
                    "malformed .config line " + std::to_string(lineno) + ": " + line);
    }
    std::string name = line.substr(kPrefixLen, eq - kPrefixLen);
    std::string value = Unquote(line.substr(eq + 1));
    if (name.empty()) {
      return Status(Err::kInval, "empty option name on line " + std::to_string(lineno));
    }
    if (value == "n") {
      continue;
    }
    config.SetValue(name, value);
  }
  return config;
}

}  // namespace lupine::kconfig
