#include "spans.hpp"

#include <utility>

#include "obs/chrome_trace.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"

namespace perfbench {

SpanLog::SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

double SpanLog::now() const {
    const std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - epoch_;
    return d.count();
}

int SpanLog::begin(std::string name, long op) {
    SpanRecord rec;
    rec.name = std::move(name);
    rec.parent = open_.empty() ? -1 : open_.back();
    rec.op = op;
    rec.start = now();
    spans_.push_back(std::move(rec));
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void SpanLog::end(int id) {
    spans_[static_cast<size_t>(id)].end = now();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanLog::endOpen() {
    while (!open_.empty()) end(open_.back());
}

std::vector<double> selfSeconds(const std::vector<SpanRecord>& spans) {
    std::vector<std::vector<Interval>> children(spans.size());
    for (const SpanRecord& s : spans) {
        if (s.parent >= 0 && s.end >= 0.0) {
            children[static_cast<size_t>(s.parent)].push_back({s.start, s.end});
        }
    }
    std::vector<double> self(spans.size(), 0.0);
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord& s = spans[i];
        if (s.end < 0.0) continue;
        self[i] = s.seconds() - coveredLength(children[i], s.start, s.end);
    }
    return self;
}

std::string_view layerOf(std::string_view name) {
    const size_t slash = name.find('/');
    return slash == std::string_view::npos ? name : name.substr(0, slash);
}

void writeChromeTrace(const std::vector<SpanRecord>& spans, std::ostream& os) {
    streak::obs::Trace trace;
    trace.reserve(spans.size());
    for (const SpanRecord& s : spans) {
        streak::obs::Span span;
        span.name = s.name;
        span.parent = s.parent;
        span.startSeconds = s.start;
        span.endSeconds = s.end;
        span.args.emplace_back("op", static_cast<double>(s.op));
        trace.push_back(std::move(span));
    }
    streak::obs::writeChromeTrace(trace, os);
}

}  // namespace perfbench
