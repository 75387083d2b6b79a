#include "common/trace.h"

#include <algorithm>
#include <cstdio>

namespace archis::trace {

const Span* FindSpan(const Span& root, const std::string& name) {
  if (root.name == name) return &root;
  for (const Span& child : root.children) {
    if (const Span* found = FindSpan(child, name)) return found;
  }
  return nullptr;
}

namespace {

/// Nanoseconds from `from` to `to`; 0 when `to` is not later.
uint64_t NsBetween(Trace::Clock::time_point from,
                   Trace::Clock::time_point to) {
  return to > from ? static_cast<uint64_t>(
                         std::chrono::nanoseconds(to - from).count())
                   : 0;
}

}  // namespace

Span* Trace::OpenSpan(const char* name, Clock::time_point start) {
  if (!rooted_) {
    rooted_ = true;
    start_ = start;
    root_.name = name;
    open_.push_back(&root_);
    return &root_;
  }
  if (open_.empty()) return nullptr;
  Span* parent = open_.back();
  parent->children.push_back(Span{});
  Span* span = &parent->children.back();
  span->name = name;
  span->start_ns = NsBetween(start_, start);
  open_.push_back(span);
  return span;
}

void Trace::CloseSpan(Span* span, Clock::time_point end) {
  // Clamp to 1ns so a closed span always reports a non-zero duration.
  span->duration_ns = std::max<uint64_t>(
      NsBetween(start_ + std::chrono::nanoseconds(span->start_ns), end), 1);
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

QueryProfile Trace::TakeProfile() {
  if (!open_.empty() && open_.front() == &root_) {
    CloseSpan(&root_, Clock::now());
  }
  QueryProfile profile;
  profile.root = std::move(root_);
  root_ = Span{};
  open_.clear();
  return profile;
}

void Trace::NoteCurrent(const std::string& key, std::string value) {
  if (open_.empty()) return;
  open_.back()->notes.emplace_back(key, std::move(value));
}

void Trace::NoteCurrent(const std::string& key, uint64_t value) {
  NoteCurrent(key, std::to_string(value));
}

namespace {

void RenderSpan(const Span& span, int depth, size_t name_width,
                std::string* out) {
  std::string line(static_cast<size_t>(depth) * 2, ' ');
  line += span.name;
  if (line.size() < name_width) line.resize(name_width, ' ');
  char buf[48];
  std::snprintf(buf, sizeof(buf), "  %10.3f ms",
                static_cast<double>(span.duration_ns) / 1e6);
  line += buf;
  for (const auto& [k, v] : span.notes) {
    line += "  ";
    line += k;
    line += "=";
    line += v;
  }
  out->append(line);
  out->push_back('\n');
  for (const Span& child : span.children) {
    RenderSpan(child, depth + 1, name_width, out);
  }
}

size_t MaxNameWidth(const Span& span, int depth) {
  size_t w = static_cast<size_t>(depth) * 2 + span.name.size();
  for (const Span& child : span.children) {
    w = std::max(w, MaxNameWidth(child, depth + 1));
  }
  return w;
}

}  // namespace

std::string QueryProfile::Render() const {
  std::string out;
  RenderSpan(root, 0, MaxNameWidth(root, 0), &out);
  return out;
}

}  // namespace archis::trace
