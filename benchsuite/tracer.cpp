#include "tracer.hpp"

#include <fstream>
#include <iomanip>
#include <stdexcept>

namespace fluxdiv::benchsuite {

namespace {

double msBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

} // namespace

Tracer::Span::Span(Tracer& tracer, const char* name, int request)
    : tracer_(tracer), id_(tracer.enabled_ ? tracer.open(name, request) : -1) {
}

Tracer::Span::~Span() {
  if (id_ >= 0) {
    tracer_.close(id_);
  }
}

int Tracer::open(const char* name, int request) {
  Record r;
  r.name = name;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.request = request < 0 && r.parent >= 0
                  ? spans_[static_cast<std::size_t>(r.parent)].request
                  : request;
  r.start = Clock::now();
  spans_.push_back(std::move(r));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
  stack_.pop_back();
}

std::map<std::string, Tracer::Layer> Tracer::layers() const {
  std::map<std::string, Layer> out;
  for (const Record& r : spans_) {
    Layer& l = out[r.name];
    const double ms = msBetween(r.start, r.end);
    ++l.count;
    l.totalMs += ms;
    l.selfMs += ms;
  }
  for (const Record& r : spans_) {
    if (r.parent >= 0) {
      out[spans_[static_cast<std::size_t>(r.parent)].name].selfMs -=
          msBetween(r.start, r.end);
    }
  }
  return out;
}

void Tracer::writeChrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  os << std::setprecision(12)
     << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << r.name
       << "\",\"cat\":\"" << r.name.substr(0, r.name.find('.'))
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << msBetween(origin_, r.start) * 1e3
       << ",\"dur\":" << msBetween(r.start, r.end) * 1e3
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent
       << ",\"request\":" << r.request << "}}";
  }
  os << "\n]}\n";
  if (!os) {
    throw std::runtime_error("failed writing trace file " + path);
  }
}

} // namespace fluxdiv::benchsuite
