#include "bench_report.hh"

#include <cinttypes>
#include <cstdio>

namespace pktchase::sim
{

namespace
{

/** Escape the characters JSON string literals cannot hold raw. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

/** One metrics map as {"k": v, ...} with a parallel hexfloat map. */
void
writeMetrics(FILE *f, const BenchReport::Metrics &metrics,
             const char *indent)
{
    std::fprintf(f, "%s\"metrics\": {", indent);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::fprintf(f, "%s\"%s\": %.17g", i ? ", " : "",
                     jsonEscape(metrics[i].first).c_str(),
                     metrics[i].second);
    }
    std::fprintf(f, "},\n%s\"hex\": {", indent);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::fprintf(f, "%s\"%s\": \"%a\"", i ? ", " : "",
                     jsonEscape(metrics[i].first).c_str(),
                     metrics[i].second);
    }
    std::fprintf(f, "}");
}

} // namespace

BenchReport::BenchReport(std::string name)
    : name_(std::move(name))
{
}

void
BenchReport::scalar(const std::string &key, double value)
{
    for (auto &kv : scalars_) {
        if (kv.first == key) {
            kv.second = value;
            return;
        }
    }
    scalars_.emplace_back(key, value);
}

void
BenchReport::meta(const std::string &key, const std::string &value)
{
    for (auto &kv : metas_) {
        if (kv.first == key) {
            kv.second = value;
            return;
        }
    }
    metas_.emplace_back(key, value);
}

void
BenchReport::manifest(const obs::RunManifest &m)
{
    manifest_ = m;
    manifestSet_ = true;
}

void
BenchReport::cell(const std::string &name, const Metrics &metrics)
{
    Cell c;
    c.name = name;
    c.metrics = metrics;
    cells_.push_back(std::move(c));
}

void
BenchReport::cell(std::size_t index, std::uint64_t seed,
                  const std::string &name, const Metrics &metrics)
{
    Cell c;
    c.name = name;
    c.metrics = metrics;
    c.hasRow = true;
    c.index = index;
    c.seed = seed;
    cells_.push_back(std::move(c));
}

bool
BenchReport::write(const std::string &path) const
{
    const std::string target =
        path.empty() ? "BENCH_" + name_ + ".json" : path;
    FILE *f = std::fopen(target.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "BenchReport: cannot write %s\n",
                     target.c_str());
        return false;
    }

    std::fprintf(f, "{\n  \"bench\": \"%s\",\n",
                 jsonEscape(name_).c_str());
    const obs::RunManifest m =
        manifestSet_ ? manifest_ : obs::RunManifest::host();
    std::fprintf(f,
                 "  \"manifest\": {\"git_sha\": \"%s\", "
                 "\"compiler\": \"%s\", \"build_flags\": \"%s\"",
                 jsonEscape(m.gitSha).c_str(),
                 jsonEscape(m.compiler).c_str(),
                 jsonEscape(m.buildFlags).c_str());
    if (!m.hostname.empty())
        std::fprintf(f, ", \"hostname\": \"%s\"",
                     jsonEscape(m.hostname).c_str());
    if (m.threads != 0)
        std::fprintf(f, ", \"threads\": %u", m.threads);
    std::fprintf(f, "},\n");
    for (const auto &kv : metas_) {
        std::fprintf(f, "  \"%s\": \"%s\",\n",
                     jsonEscape(kv.first).c_str(),
                     jsonEscape(kv.second).c_str());
    }
    for (const auto &kv : scalars_) {
        std::fprintf(f, "  \"%s\": %.17g,\n",
                     jsonEscape(kv.first).c_str(), kv.second);
    }
    std::fprintf(f, "  \"cells\": [\n");
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        const Cell &c = cells_[i];
        std::fprintf(f, "    {");
        if (c.hasRow) {
            std::fprintf(f, "\"index\": %zu, \"seed\": \"0x%016" PRIx64
                            "\",\n     ",
                         c.index, c.seed);
        }
        std::fprintf(f, "\"name\": \"%s\",\n",
                     jsonEscape(c.name).c_str());
        writeMetrics(f, c.metrics, "     ");
        std::fprintf(f, "}%s\n", i + 1 < cells_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    const bool failed = std::ferror(f) != 0;
    if (std::fclose(f) != 0 || failed) {
        std::fprintf(stderr, "BenchReport: cannot write %s\n",
                     target.c_str());
        return false;
    }
    return true;
}

} // namespace pktchase::sim
