#include "trace.hpp"

#include <cstdio>

namespace perfbench {

std::int32_t Tracer::begin(const char* name, std::int64_t op) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_;
  s.op = op;
  const auto id = static_cast<std::int32_t>(spans_.size());
  s.root = open_ >= 0 ? spans_[static_cast<std::size_t>(open_)].root : id;
  spans_.push_back(s);
  open_ = id;
  spans_.back().start_ns = now_ns();
  return id;
}

void Tracer::end(std::int32_t id) {
  if (id < 0) return;
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns();
  open_ = s.parent;
}

namespace {

/// Layer of a span name: the text before the first '.'.
std::string layer_of(const char* name) {
  const std::string n{name};
  return n.substr(0, n.find('.'));
}

}  // namespace

std::map<std::string, std::int64_t> Tracer::layer_self_ns(
    const std::string& root) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.ns();
  }
  std::map<std::string, std::int64_t> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (root_name(i) == root) {
      self[layer_of(spans_[i].name)] += spans_[i].ns() - child_ns[i];
    }
  }
  return self;
}

bool Tracer::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fprintf(f, "index\tname\tstart_ns\tend_ns\tparent\troot\top\n") > 0;
  for (std::size_t i = 0; i < spans_.size() && ok; ++i) {
    const Span& s = spans_[i];
    ok = std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%d\t%d\t%lld\n", i, s.name,
                      static_cast<long long>(s.start_ns),
                      static_cast<long long>(s.end_ns), s.parent, s.root,
                      static_cast<long long>(s.op)) > 0;
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
