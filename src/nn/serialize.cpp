#include "nn/serialize.h"

#include <charconv>
#include <fstream>
#include <stdexcept>
#include <string_view>

namespace hero::nn {

namespace {

void append_size(std::string& out, std::size_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

// Exactly printf's "%.17g" — the bytes `ostream << setprecision(17)` writes
// — and enough digits to round-trip every double.
void append_double(std::string& out, double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

// The whole checkpoint text, so each save is one write.
std::string checkpoint_text(Mlp& net) {
  const auto& ps = net.params();
  std::size_t values = 0;
  for (auto p : ps) values += p.value->size();
  std::string out;
  out.reserve(32 + 24 * ps.size() + 25 * values);
  out += "herockpt 1 ";
  append_size(out, ps.size());
  out += '\n';
  for (auto p : ps) {
    append_size(out, p.value->rows());
    out += ' ';
    append_size(out, p.value->cols());
    out += '\n';
    for (std::size_t i = 0; i < p.value->size(); ++i) {
      append_double(out, p.value->data()[i]);
      out += i + 1 == p.value->size() ? '\n' : ' ';
    }
  }
  return out;
}

// Whitespace-separated tokens of a checkpoint stream, parsed with
// from_chars. Reads a line at a time, so the stream is left just past the
// checkpoint's last line.
class TokenReader {
 public:
  explicit TokenReader(std::istream& is) : is_(is) {}

  // False at end of stream or when the token is not a whole T.
  template <class T>
  bool next(T& v) {
    const std::string_view t = next_token();
    const char* end = t.data() + t.size();
    const auto r = std::from_chars(t.data(), end, v);
    return !t.empty() && r.ec == std::errc() && r.ptr == end;
  }

  std::string_view next_token() {
    for (;;) {
      while (pos_ < line_.size() && is_space(line_[pos_])) ++pos_;
      if (pos_ < line_.size()) break;
      if (!std::getline(is_, line_)) return {};
      pos_ = 0;
    }
    const std::size_t start = pos_;
    while (pos_ < line_.size() && !is_space(line_[pos_])) ++pos_;
    return std::string_view(line_).substr(start, pos_ - start);
  }

 private:
  static bool is_space(char c) {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
  }

  std::istream& is_;
  std::string line_;
  std::size_t pos_ = 0;
};

}  // namespace

void save_params(Mlp& net, std::ostream& os) {
  const std::string text = checkpoint_text(net);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void load_params(Mlp& net, std::istream& is) {
  TokenReader in(is);
  int version = 0;
  std::size_t count = 0;
  const bool magic_ok = in.next_token() == "herockpt";
  if (!magic_ok || !in.next(version) || version != 1 || !in.next(count)) {
    throw std::runtime_error("load_params: not a herockpt v1 stream");
  }
  const auto& ps = net.params();
  if (count != ps.size()) {
    throw std::runtime_error("load_params: parameter count mismatch");
  }
  for (auto p : ps) {
    std::size_t r = 0, c = 0;
    if (!in.next(r) || !in.next(c)) {
      throw std::runtime_error("load_params: truncated stream");
    }
    if (r != p.value->rows() || c != p.value->cols()) {
      throw std::runtime_error("load_params: shape mismatch");
    }
    for (std::size_t i = 0; i < p.value->size(); ++i) {
      if (!in.next(p.value->data()[i])) {
        throw std::runtime_error("load_params: truncated stream");
      }
    }
  }
}

void save_params_file(Mlp& net, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("save_params_file: cannot open " + path);
  save_params(net, f);
  f.close();
  if (!f) throw std::runtime_error("save_params_file: cannot write " + path);
}

void load_params_file(Mlp& net, const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("load_params_file: cannot open " + path);
  load_params(net, f);
}

}  // namespace hero::nn
