// Outside-in span recording for the traced pass: the benchmark opens a
// span around each call it makes into a layer's public function, keeps
// every span in memory (name, start, end, parent, operation id) and
// writes them out once, when the run ends.
#pragma once

#include <chrono>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct SpanRecord {
    std::string name;  ///< "<layer>/<function>", or "op" for an operation
    int parent = -1;   ///< index into the log, -1 = root
    long op = -1;      ///< operation the span belongs to
    double start = 0.0;  ///< seconds since the log's epoch
    double end = -1.0;   ///< < 0 while open

    [[nodiscard]] double seconds() const {
        return end < 0.0 ? 0.0 : end - start;
    }
};

class SpanLog {
public:
    SpanLog();

    /// Open a span under the innermost open one; returns its index.
    int begin(std::string name, long op);
    void end(int id);
    /// End every span still open (after an exception unwound past an
    /// explicitly ended one), so later spans are not attributed to it.
    void endOpen();

    [[nodiscard]] const std::vector<SpanRecord>& spans() const {
        return spans_;
    }

    /// RAII span over a scope.
    class Scope {
    public:
        Scope(SpanLog& log, std::string name, long op)
            : log_(log), id_(log.begin(std::move(name), op)) {}
        ~Scope() { log_.end(id_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        SpanLog& log_;
        int id_;
    };

private:
    [[nodiscard]] double now() const;

    std::vector<SpanRecord> spans_;
    std::vector<int> open_;
    std::chrono::steady_clock::time_point epoch_;
};

/// Self seconds of every span: its duration minus the part of its
/// interval that its direct children cover.
[[nodiscard]] std::vector<double> selfSeconds(
    const std::vector<SpanRecord>& spans);

/// The layer a span belongs to: the name's prefix before '/', or the
/// whole name when it has none ("core/buildProblem" -> "core").
[[nodiscard]] std::string_view layerOf(std::string_view name);

/// Write the spans in the Trace Event Format (chrome://tracing,
/// ui.perfetto.dev), each carrying its operation id as an arg.
void writeChromeTrace(const std::vector<SpanRecord>& spans, std::ostream& os);

}  // namespace perfbench
