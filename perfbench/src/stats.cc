#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hh"

namespace perfbench
{

namespace
{

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char ch : s) {
        const unsigned char c = static_cast<unsigned char>(ch);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += ch;
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
Report::check(const std::string &name, bool ok, const std::string &detail)
{
    checks_.push_back({name, ok, detail});
    if (!ok) {
        failed_++;
        std::fprintf(stderr, "perfbench: check failed: %s %s\n",
                     name.c_str(), detail.c_str());
    }
}

void
Report::absorbLayers(const Report &other)
{
    for (const auto &[name, m] : other.metrics_) {
        if (name.find('.') != std::string::npos)
            metrics_[name] = m;
    }
    for (const Check &c : other.checks_)
        checks_.push_back(c);
    attempted_ += other.attempted_;
    failed_ += other.failed_;
}

std::string
Report::json(const std::string &workload, std::uint64_t seed,
             bool traced) const
{
    std::string out = "{\"workload\":" + jsonString(workload) +
                      ",\"seed\":" + std::to_string(seed) +
                      ",\"traced\":" + (traced ? "true" : "false") +
                      ",\"attempted\":" + std::to_string(attempted_) +
                      ",\"failed\":" + std::to_string(failed_) +
                      ",\"metrics\":{";
    const char *sep = "";
    for (const auto &[name, m] : metrics_) {
        out += sep;
        out += jsonString(name) + ":[" + jsonNumber(m.value) + "," +
               std::to_string(m.samples) + "]";
        sep = ",";
    }
    out += "},\"checks\":[";
    sep = "";
    for (const Check &c : checks_) {
        out += sep;
        out += "{\"name\":" + jsonString(c.name) + ",\"ok\":" +
               (c.ok ? "true" : "false") +
               ",\"detail\":" + jsonString(c.detail) + "}";
        sep = ",";
    }
    return out + "]}";
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return std::nan("");
    // Nearest rank: the smallest sample with at least q of the
    // samples at or below it.
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    idx = std::min(idx, v.size() - 1);
    std::nth_element(v.begin(), v.begin() + static_cast<long>(idx),
                     v.end());
    return v[idx];
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (const double x : v)
        s += x;
    return s;
}

} // namespace perfbench
