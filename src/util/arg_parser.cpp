#include "util/arg_parser.hpp"

#include <algorithm>

#include "util/parse.hpp"

namespace plexus::util {

namespace {

/// Classic DP edit distance, small strings only (flag names).
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

}  // namespace

ArgParser::ArgParser(std::string prog, std::string summary)
    : prog_(std::move(prog)), summary_(std::move(summary)) {}

void ArgParser::add_flag(std::string name, std::string hint, std::string help, std::string def) {
  flags_.push_back({std::move(name), std::move(hint), std::move(help), std::move(def), "", false});
}

ArgParser::Flag* ArgParser::find(std::string_view name) {
  for (auto& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

const ArgParser::Flag* ArgParser::find(std::string_view name) const {
  return const_cast<ArgParser*>(this)->find(name);
}

std::string ArgParser::suggest(std::string_view name) const {
  std::size_t best = 3;  // only suggest within edit distance 2
  std::string hit;
  for (const auto& f : flags_) {
    const std::size_t d = edit_distance(name, f.name);
    if (d < best) {
      best = d;
      hit = f.name;
    }
  }
  return hit;
}

ArgParser::Status ArgParser::parse(int argc, char** argv) {
  error_.clear();
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      error_ = "unexpected argument '" + std::string(arg) + "' (flags are --key=value)";
      return Status::Error;
    }
    std::string_view body = arg.substr(2);
    std::string_view val;
    const auto eq = body.find('=');
    const bool has_value = eq != std::string_view::npos;
    if (has_value) {
      val = body.substr(eq + 1);
      body = body.substr(0, eq);
    }
    if (body == "help") return Status::Help;
    Flag* f = find(body);
    if (f == nullptr) {
      error_ = "unknown flag --" + std::string(body);
      const std::string s = suggest(body);
      if (!s.empty()) error_ += " (did you mean --" + s + "?)";
      return Status::Error;
    }
    f->parsed = has_value ? std::string(val) : "1";
    f->set = true;
  }
  return Status::Ok;
}

bool ArgParser::is_set(std::string_view name) const {
  const Flag* f = find(name);
  return f != nullptr && f->set;
}

const std::string& ArgParser::value(std::string_view name) const {
  static const std::string empty;
  const Flag* f = find(name);
  if (f == nullptr) return empty;
  return f->set ? f->parsed : f->def;
}

bool ArgParser::value_int(std::string_view name, int& out) const {
  return parse_int(value(name), out);
}

bool ArgParser::value_int64(std::string_view name, std::int64_t& out) const {
  return parse_int64(value(name), out);
}

bool ArgParser::value_double(std::string_view name, double& out) const {
  return parse_double(value(name), out);
}

std::string ArgParser::usage() const {
  std::string s = "usage: " + prog_;
  for (const auto& f : flags_) s += " [--" + f.name + "=" + f.hint + "]";
  s += "\n  " + summary_ + "\n";
  std::size_t width = 0;
  for (const auto& f : flags_) width = std::max(width, f.name.size() + f.hint.size() + 3);
  for (const auto& f : flags_) {
    const std::string head = "--" + f.name + "=" + f.hint;
    s += "  " + head + std::string(width + 2 - head.size(), ' ') + f.help;
    if (!f.def.empty()) s += " (default " + f.def + ")";
    s += "\n";
  }
  return s;
}

}  // namespace plexus::util
