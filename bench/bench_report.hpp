// The one writer of the benches' BENCH_*.json reports, plus the two helpers
// every bench needs (environment knobs and a wall clock). Standard library
// only, so benches that link no cluster code use it as well.
//
// Environment:
//   MAMS_BENCH_OUT — report path (default: the bench's BENCH_<name>.json)
#pragma once

#include <chrono>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace mams::bench {

inline int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

/// Host steady-clock seconds; only differences mean anything.
inline double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A JSON value whose members print in the order they were added. Scalars
/// are rendered when built, so a double prints at exactly the precision
/// its caller chose.
class Json {
 public:
  static Json Object() { return Json(Kind::kObject); }
  static Json Array() { return Json(Kind::kArray); }
  /// A double printed as "%.*f" with `precision` digits after the point.
  static Json Num(double v, int precision) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return Json(Kind::kScalar, buf);
  }

  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Json(T v) : text_(std::to_string(v)) {}
  Json(bool v) : text_(v ? "true" : "false") {}
  Json(const char* s) : text_(Quote(s)) {}
  Json(const std::string& s) : text_(Quote(s)) {}
  Json(double) = delete;  ///< a double needs Num(v, precision)

  /// Appends `key: value` to an object.
  Json& Set(std::string key, Json value) {
    items_.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  /// Appends `value` to an array.
  Json& Push(Json value) { return Set({}, std::move(value)); }

  /// Two-space indented text, one member or element per line.
  std::string Render(int indent = 0) const {
    if (kind_ == Kind::kScalar) return text_;
    const bool object = kind_ == Kind::kObject;
    std::string out(1, object ? '{' : '[');
    const std::string pad(static_cast<std::size_t>(indent) + 2, ' ');
    for (std::size_t i = 0; i < items_.size(); ++i) {
      out += i == 0 ? "\n" : ",\n";
      out += pad;
      if (object) out += Quote(items_[i].first) + ": ";
      out += items_[i].second.Render(indent + 2);
    }
    if (!items_.empty()) {
      out += '\n' + std::string(static_cast<std::size_t>(indent), ' ');
    }
    out += object ? '}' : ']';
    return out;
  }

 private:
  enum class Kind { kScalar, kObject, kArray };

  explicit Json(Kind kind, std::string text = {})
      : kind_(kind), text_(std::move(text)) {}

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char esc[8];
        std::snprintf(esc, sizeof(esc), "\\u%04x", c);
        out += esc;
      } else {
        out += c;
      }
    }
    return out + '"';
  }

  Kind kind_ = Kind::kScalar;
  std::string text_;  ///< rendered scalar
  std::vector<std::pair<std::string, Json>> items_;  ///< object/array body
};

/// Writes `doc` to $MAMS_BENCH_OUT, or to `default_file` when that is
/// unset, then prints "wrote <path>". Returns non-zero if the file cannot
/// be written.
inline int WriteReport(const char* default_file, const Json& doc) {
  const char* env = std::getenv("MAMS_BENCH_OUT");
  const char* path = env != nullptr ? env : default_file;
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  const std::string text = doc.Render() + "\n";
  const bool written =
      std::fwrite(text.data(), 1, text.size(), out) == text.size();
  if (std::fclose(out) != 0 || !written) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::printf("wrote %s\n", path);
  return 0;
}

}  // namespace mams::bench
