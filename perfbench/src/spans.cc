#include "spans.hh"

#include <cstdio>
#include <memory>

namespace perfbench
{

Tracer::Tracer(bool on, unsigned lanes)
    : on_(on), origin_(nowNs()), lanes_(lanes ? lanes : 1)
{
}

void
Tracer::setLaneRoot(unsigned lane, std::uint64_t parent)
{
    lanes_.at(lane).root = parent;
}

bool
Tracer::write(const std::string &path) const
{
    std::unique_ptr<std::FILE, int (*)(std::FILE *)> f(
        std::fopen(path.c_str(), "w"), &std::fclose);
    if (!f)
        return false;
    std::fputs("id\tparent\tgroup\tlane\tname\tstart_ns\tend_ns\n",
               f.get());
    for (const Lane &l : lanes_) {
        for (const SpanRecord &s : l.spans) {
            std::fprintf(f.get(), "%llu\t%llu\t%llu\t%u\t%s\t%lld\t%lld\n",
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent),
                         static_cast<unsigned long long>(s.group),
                         s.lane, s.name,
                         static_cast<long long>(s.start - origin_),
                         static_cast<long long>(s.end - origin_));
        }
    }
    return std::ferror(f.get()) == 0;
}

Span::Span(Tracer &tracer, unsigned lane, const char *name,
           std::uint64_t group, bool record)
    : tracer_(tracer), lane_(lane), name_(name),
      record_(record && tracer.on_)
{
    if (record_) {
        Tracer::Lane &l = tracer_.lanes_.at(lane_);
        id_ = tracer_.nextId_.fetch_add(1, std::memory_order_relaxed);
        if (l.stack.empty()) {
            parent_ = l.root;
        } else {
            parent_ = l.stack.back().id;
            if (group == 0)
                group = l.stack.back().group;
        }
        group_ = group == kNewGroup ? id_ : group;
        l.stack.push_back({id_, group_});
    }
    start_ = nowNs();
}

Span::~Span()
{
    close();
}

std::int64_t
Span::close()
{
    if (duration_ >= 0)
        return duration_;
    const std::int64_t end = nowNs();
    duration_ = end - start_;
    if (record_) {
        Tracer::Lane &l = tracer_.lanes_[lane_];
        l.stack.pop_back();
        l.spans.push_back(
            {id_, parent_, group_, name_, start_, end, lane_});
    }
    return duration_;
}

} // namespace perfbench
