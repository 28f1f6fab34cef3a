#include "trace.hpp"

#include <fstream>
#include <map>

#include "json.hpp"

namespace perfbench {

int Lane::open(std::string name, int parent) {
    const double t = now();
    return add(std::move(name), t, t, parent);
}

int Lane::add(std::string name, double begin, double end, int parent, bool reported) {
    spans_.push_back(Span{std::move(name), begin, end, parent, reported});
    return static_cast<int>(spans_.size()) - 1;
}

void Lane::addReported(int parent, const std::vector<std::pair<std::string, double>>& parts) {
    double t = span(parent).begin;
    for (const auto& [name, seconds] : parts) {
        add(name, t, t + seconds, parent, /*reported=*/true);
        t += seconds;
    }
}

std::vector<Interval> Lane::childIntervals(int i) const {
    std::vector<Interval> children;
    for (const auto& s : spans_)
        if (s.parent == i) children.push_back(Interval{s.begin, s.end});
    return children;
}

double Lane::coverage(int i) const {
    const Span& s = span(i);
    const double length = s.end - s.begin;
    if (length <= 0.0) return 1.0;
    return coveredLength(Interval{s.begin, s.end}, childIntervals(i)) / length;
}

double Lane::selfSeconds(int i) const {
    const Span& s = span(i);
    return selfTime(Interval{s.begin, s.end}, childIntervals(i));
}

Lane& Trace::lane(std::string name) {
    const int tid = static_cast<int>(lanes_.size()) + 1;
    return lanes_.emplace_back(std::move(name), tid, origin_);
}

std::vector<std::pair<std::string, double>> Trace::layerSelfSeconds() const {
    std::map<std::string, double> perLayer;
    for (const auto& lane : lanes_) {
        // One pass that buckets children by parent keeps this linear in the
        // span count (the serving lanes record hundreds of thousands).
        std::vector<std::vector<Interval>> children(lane.spans().size());
        for (const auto& s : lane.spans())
            if (s.parent >= 0)
                children[static_cast<std::size_t>(s.parent)].push_back({s.begin, s.end});
        for (std::size_t i = 0; i < lane.spans().size(); ++i) {
            const Span& s = lane.spans()[i];
            const std::string layer = s.name.substr(0, s.name.find('.'));
            perLayer[layer] += selfTime(Interval{s.begin, s.end}, std::move(children[i]));
        }
    }
    return {perLayer.begin(), perLayer.end()};
}

bool Trace::writeChrome(const std::string& path, std::size_t maxPerName,
                        const std::string& metadataJson) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    std::uint64_t dropped = 0;
    for (const auto& lane : lanes_) {
        out << (first ? "" : ",")
            << JsonObject()
                   .add("name", std::string("thread_name"))
                   .add("ph", std::string("M"))
                   .add("pid", 1)
                   .add("tid", lane.tid())
                   .raw("args", JsonObject().add("name", lane.name()).str())
                   .str();
        first = false;
        std::map<std::string, std::size_t> written;
        for (const auto& s : lane.spans()) {
            if (++written[s.name] > maxPerName) {
                ++dropped;
                continue;
            }
            out << ','
                << JsonObject()
                       .add("name", s.name)
                       .add("cat", s.name.substr(0, s.name.find('.')))
                       .add("ph", std::string("X"))
                       .add("pid", 1)
                       .add("tid", lane.tid())
                       .add("ts", s.begin * 1e6)
                       .add("dur", (s.end - s.begin) * 1e6)
                       .raw("args", JsonObject().add("reported", s.reported).str())
                       .str();
        }
    }
    out << "],\"otherData\":"
        << JsonObject().raw("run", metadataJson).add("dropped_spans", dropped).str() << "}\n";
    return static_cast<bool>(out);
}

}  // namespace perfbench
