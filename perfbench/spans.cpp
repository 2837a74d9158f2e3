#include "spans.h"

#include <cstdio>
#include <memory>

namespace perfbench {

namespace {

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

/** Minimal JSON string escaping (names and metadata are ASCII). */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

int64_t
Tracer::begin(const std::string &name, int64_t id)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.id = id;
    spans_.push_back(std::move(span));
    int64_t index = static_cast<int64_t>(spans_.size()) - 1;
    open_.push_back(index);
    // Stamp the start last so the bookkeeping above is not timed.
    spans_[index].start_ns = nowNs();
    return index;
}

void
Tracer::end(int64_t span)
{
    if (span < 0)
        return;
    spans_[span].end_ns = nowNs();
    open_.pop_back();
}

Aggregate *
Tracer::aggregate(const std::string &name)
{
    if (!enabled_)
        return nullptr;
    auto agg = std::make_unique<Aggregate>();
    agg->name = name;
    agg->parent = open_.empty() ? -1 : open_.back();
    aggregates_.push_back(std::move(agg));
    return aggregates_.back().get();
}

double
Tracer::totalSeconds(const std::string &name) const
{
    int64_t ns = 0;
    for (const Span &s : spans_)
        if (s.name == name)
            ns += s.end_ns - s.start_ns;
    return static_cast<double>(ns) * 1e-9;
}

std::map<std::string, double>
Tracer::selfSecondsByLayer(const std::string &within) const
{
    // Children of one span never overlap (spans open and close on
    // one thread in LIFO order), so self = duration - Σ children.
    // A parent always precedes its children in spans_.
    std::vector<int64_t> self_ns(spans_.size());
    std::vector<bool> counted(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        self_ns[i] = s.end_ns - s.start_ns;
        counted[i] = within.empty() || s.name == within ||
                     (s.parent >= 0 && counted[s.parent]);
        if (s.parent >= 0)
            self_ns[s.parent] -= s.end_ns - s.start_ns;
    }
    std::map<std::string, double> out;
    for (const auto &agg : aggregates_) {
        if (agg->parent >= 0)
            self_ns[agg->parent] -= agg->total_ns;
        if (within.empty() || (agg->parent >= 0 && counted[agg->parent]))
            out[layerOf(agg->name)] +=
                static_cast<double>(agg->total_ns) * 1e-9;
    }
    for (size_t i = 0; i < spans_.size(); ++i)
        if (counted[i])
            out[layerOf(spans_[i].name)] +=
                static_cast<double>(self_ns[i]) * 1e-9;
    return out;
}

bool
Tracer::writeChromeTrace(
    const std::string &path,
    const std::map<std::string, std::string> &metadata) const
{
    struct Closer
    {
        void operator()(FILE *f) const { std::fclose(f); }
    };
    std::unique_ptr<FILE, Closer> file(std::fopen(path.c_str(), "w"));
    if (!file)
        return false;
    FILE *f = file.get();
    int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"traceEvents\":[\n");
    bool first = true;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\":%s,\"cat\":%s,\"ph\":\"X\","
                     "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"span\":%zu,\"parent\":%lld,"
                     "\"id\":%lld}}",
                     first ? "" : ",\n", quoted(s.name).c_str(),
                     quoted(layerOf(s.name)).c_str(),
                     static_cast<double>(s.start_ns - origin) * 1e-3,
                     static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                     i, static_cast<long long>(s.parent),
                     static_cast<long long>(s.id));
        first = false;
    }
    // Aggregates become instant events on their parent span's start,
    // carrying the call count and summed duration.
    for (const auto &agg : aggregates_) {
        double ts = agg->parent >= 0
                        ? static_cast<double>(
                              spans_[agg->parent].start_ns - origin) *
                              1e-3
                        : 0.0;
        std::fprintf(f,
                     "%s{\"name\":%s,\"cat\":%s,\"ph\":\"i\",\"s\":"
                     "\"t\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                     "\"args\":{\"parent\":%lld,\"count\":%lld,"
                     "\"total_us\":%.3f}}",
                     first ? "" : ",\n", quoted(agg->name).c_str(),
                     quoted(layerOf(agg->name)).c_str(), ts,
                     static_cast<long long>(agg->parent),
                     static_cast<long long>(agg->count),
                     static_cast<double>(agg->total_ns) * 1e-3);
        first = false;
    }
    std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{");
    first = true;
    for (const auto &[key, value] : metadata) {
        std::fprintf(f, "%s%s:%s", first ? "" : ",",
                     quoted(key).c_str(), quoted(value).c_str());
        first = false;
    }
    std::fprintf(f, "}}\n");
    bool ok = std::ferror(f) == 0;
    // Closing flushes the buffered tail, so its result counts too.
    return std::fclose(file.release()) == 0 && ok;
}

} // namespace perfbench
