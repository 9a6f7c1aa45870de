// Tiny command-line flag helpers shared by the examples, daemons, tools
// and benches.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

namespace asdf::examples {

/// Returns the value of "--name=value", or fallback when absent.
inline std::string flagValue(int argc, char** argv, const std::string& name,
                             const std::string& fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

/// Strict argument validation: every argument must be "--name" or
/// "--name=value" with `name` in `allowed`. On the first unknown
/// argument prints an error plus `usage` to stderr and returns false
/// (callers exit nonzero) — a mistyped flag must not silently fall
/// back to a default.
inline bool checkFlags(int argc, char** argv,
                       std::initializer_list<const char*> allowed,
                       const std::string& usage) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool known = false;
    if (arg.size() > 2 && arg.compare(0, 2, "--") == 0) {
      const std::size_t eq = arg.find('=');
      const std::string name =
          eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
      for (const char* a : allowed) {
        if (name == a) {
          known = true;
          break;
        }
      }
    }
    if (!known) {
      std::fprintf(stderr, "unknown option '%s'\nusage: %s", arg.c_str(),
                   usage.c_str());
      return false;
    }
  }
  return true;
}

/// Finds the last "--name=value" or bare "--name" (value "") among
/// the arguments; false when the flag is absent.
inline bool lastFlag(int argc, char** argv, const std::string& name,
                     std::string& value) {
  const std::string bare = "--" + name;
  const std::string prefix = bare + "=";
  bool present = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == bare) {
      present = true;
      value.clear();
    } else if (arg.compare(0, prefix.size(), prefix) == 0) {
      present = true;
      value = arg.substr(prefix.size());
    }
  }
  return present;
}

/// The check behind every integer flag: `value` must be a fully
/// numeric integer within [lo, hi]. Otherwise prints an error naming
/// `what` (a flag, or an item of one) to stderr and returns false.
inline bool parseBoundedValue(const std::string& what,
                              const std::string& value, long lo, long hi,
                              long& out) {
  errno = 0;
  char* end = nullptr;
  const long parsed =
      value.empty() ? 0 : std::strtol(value.c_str(), &end, 10);
  if (value.empty() || end == value.c_str() || *end != '\0' ||
      errno == ERANGE || parsed < lo || parsed > hi) {
    if (lo == std::numeric_limits<long>::min() &&
        hi == std::numeric_limits<long>::max()) {
      std::fprintf(stderr, "%s must be an integer, got '%s'\n", what.c_str(),
                   value.c_str());
    } else {
      std::fprintf(stderr, "%s must be an integer in [%ld, %ld], got '%s'\n",
                   what.c_str(), lo, hi, value.c_str());
    }
    return false;
  }
  out = parsed;
  return true;
}

/// Strict bounded-integer flag parsing: "--name" absent leaves `out`
/// at `fallback` and succeeds; present, the value must be a fully
/// numeric integer within [lo, hi] — a bare "--name", an empty value,
/// trailing garbage ("8x"), or an out-of-range value prints an error
/// to stderr and returns false (callers exit nonzero). A flag silently
/// falling back to its default when the operator mistyped it would be
/// a config bug nobody notices.
inline bool parseBoundedInt(int argc, char** argv, const std::string& name,
                            long lo, long hi, long fallback, long& out) {
  out = fallback;
  std::string value;
  if (!lastFlag(argc, argv, name, value)) return true;
  return parseBoundedValue("--" + name, value, lo, hi, out);
}

/// A comma-separated integer list ("--groups=4,4,2"): `fallback` when
/// absent; present, every item must pass parseBoundedInt's rules, or
/// the run exits 2 naming the flag — "--groups=4x,4" must not read 4.
inline std::vector<long> flagIntList(int argc, char** argv,
                                     const std::string& name, long lo,
                                     long hi, std::vector<long> fallback) {
  std::string value;
  if (!lastFlag(argc, argv, name, value)) return fallback;
  std::vector<long> items;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t comma = value.find(',', pos);
    const std::string item = value.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    long parsed = 0;
    if (!parseBoundedValue("--" + name + " item", item, lo, hi, parsed)) {
      std::exit(2);
    }
    items.push_back(parsed);
    if (comma == std::string::npos) return items;
    pos = comma + 1;
  }
}

/// "--name=N" as a whole integer; `fallback` when absent. Any other
/// value exits 2 after parseBoundedInt names the flag, as an unknown
/// flag does: "--slaves=abc" must not run with 0 slaves.
inline long flagInt(int argc, char** argv, const std::string& name,
                    long fallback) {
  long out = fallback;
  if (!parseBoundedInt(argc, argv, name, std::numeric_limits<long>::min(),
                       std::numeric_limits<long>::max(), fallback, out)) {
    std::exit(2);
  }
  return out;
}

/// flagInt's rules for a decimal value: present, it must be a whole
/// finite number, or the run exits 2 naming the flag.
inline double flagDouble(int argc, char** argv, const std::string& name,
                         double fallback) {
  std::string value;
  if (!lastFlag(argc, argv, name, value)) return fallback;
  char* end = nullptr;
  const double parsed =
      value.empty() ? 0.0 : std::strtod(value.c_str(), &end);
  if (value.empty() || end == value.c_str() || *end != '\0' ||
      !std::isfinite(parsed)) {
    std::fprintf(stderr, "--%s must be a number, got '%s'\n", name.c_str(),
                 value.c_str());
    std::exit(2);
  }
  return parsed;
}

/// A TCP port flag: 0 (an ephemeral port) through 65535, so
/// "--port=70000" is refused rather than wrapped to 4464.
inline std::uint16_t flagPort(int argc, char** argv, const std::string& name,
                              long fallback) {
  long port = fallback;
  if (!parseBoundedInt(argc, argv, name, 0, 65535, fallback, port)) {
    std::exit(2);
  }
  return static_cast<std::uint16_t>(port);
}

/// Strict --shards parsing: accepts only a positive integer (capped at
/// 64 network-plane shards — far past any sane core count).
inline bool parseShards(int argc, char** argv, int& shardsOut) {
  long shards = 1;
  if (!parseBoundedInt(argc, argv, "shards", 1, 64, 1, shards)) return false;
  shardsOut = static_cast<int>(shards);
  return true;
}

inline bool flagPresent(int argc, char** argv, const std::string& name) {
  const std::string bare = "--" + name;
  const std::string prefix = bare + "=";
  for (int i = 1; i < argc; ++i) {
    if (bare == argv[i] ||
        std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return true;
    }
  }
  return false;
}

}  // namespace asdf::examples
