#include "workloads/trace_workload.hh"

#include <cctype>
#include <fstream>
#include <utility>

#include "common/logging.hh"
#include "common/stats_registry.hh"
#include "system/system.hh"

namespace neummu {

namespace {

/** Extract an unsigned JSON number field ("key":123). */
bool
findUint(const std::string &line, const std::string &key,
         std::uint64_t &out)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return false;
    std::size_t pos = at + needle.size();
    while (pos < line.size() && std::isspace(
               static_cast<unsigned char>(line[pos])))
        pos++;
    if (pos >= line.size() || !std::isdigit(
            static_cast<unsigned char>(line[pos])))
        return false;
    out = 0;
    while (pos < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[pos]))) {
        out = out * 10 + std::uint64_t(line[pos] - '0');
        pos++;
    }
    return true;
}

/**
 * Undo the escapes stats::jsonEscape emits (short forms plus
 * \\uXXXX). @p pos is at the opening quote's successor; stops at the
 * closing quote.
 */
std::string
unescapeJsonString(const std::string &line, std::size_t pos)
{
    std::string out;
    while (pos < line.size() && line[pos] != '"') {
        if (line[pos] != '\\') {
            out += line[pos++];
            continue;
        }
        if (++pos >= line.size())
            break;
        switch (line[pos]) {
          case 'n': out += '\n'; pos++; break;
          case 't': out += '\t'; pos++; break;
          case 'r': out += '\r'; pos++; break;
          case 'b': out += '\b'; pos++; break;
          case 'f': out += '\f'; pos++; break;
          case 'u': {
            unsigned code = 0;
            std::size_t digits = 0;
            while (digits < 4 && pos + 1 + digits < line.size() &&
                   std::isxdigit(static_cast<unsigned char>(
                       line[pos + 1 + digits]))) {
                const char c = line[pos + 1 + digits];
                code = code * 16 +
                       unsigned(std::isdigit(
                                    static_cast<unsigned char>(c))
                                    ? c - '0'
                                    : std::tolower(c) - 'a' + 10);
                digits++;
            }
            if (digits == 4 && code < 0x80) {
                out += char(code);
                pos += 5;
            } else {
                out += 'u'; // malformed escape: keep it visible
                pos++;
            }
            break;
          }
          default: out += line[pos++]; break;
        }
    }
    return out;
}

/** Extract a JSON bool field ("key":true/false). */
bool
findBool(const std::string &line, const std::string &key, bool &out)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return false;
    const std::size_t pos = at + needle.size();
    if (line.compare(pos, 4, "true") == 0) {
        out = true;
        return true;
    }
    if (line.compare(pos, 5, "false") == 0) {
        out = false;
        return true;
    }
    return false;
}

} // namespace

bool
writeTraceJsonl(const std::string &path, const TraceHeader &header,
                const std::vector<TraceEntry> &entries)
{
    std::ofstream out(path);
    if (!out) {
        warn("cannot open trace output file " + path);
        return false;
    }
    out << "{\"neummu_trace\":1,\"pageShift\":" << header.pageShift
        << ",\"source\":\"" << stats::jsonEscape(header.source)
        << "\"}\n";
    for (const TraceEntry &e : entries) {
        out << "{\"t\":" << e.tick << ",\"va\":" << e.va
            << ",\"bytes\":" << e.bytes << ",\"ok\":"
            << (e.accepted ? "true" : "false") << "}\n";
    }
    return bool(out);
}

bool
readTraceJsonl(const std::string &path, TraceHeader &header,
               std::vector<TraceEntry> &entries)
{
    std::ifstream in(path);
    if (!in) {
        warn("cannot open trace file " + path);
        return false;
    }
    std::string line;
    if (!std::getline(in, line) ||
        line.find("\"neummu_trace\"") == std::string::npos) {
        warn("trace file " + path + " has no neummu_trace header");
        return false;
    }
    std::uint64_t page_shift = 0;
    if (!findUint(line, "pageShift", page_shift)) {
        warn("trace header in " + path + " lacks pageShift");
        return false;
    }
    header.pageShift = unsigned(page_shift);
    const std::size_t src_at = line.find("\"source\":\"");
    if (src_at != std::string::npos)
        header.source = unescapeJsonString(line, src_at + 10);

    entries.clear();
    std::size_t line_no = 1;
    while (std::getline(in, line)) {
        line_no++;
        if (line.empty())
            continue;
        TraceEntry e;
        std::uint64_t t = 0, va = 0, bytes = 0;
        if (!findUint(line, "t", t) || !findUint(line, "va", va)) {
            warn("malformed trace line " + std::to_string(line_no) +
                 " in " + path);
            return false;
        }
        findUint(line, "bytes", bytes);
        findBool(line, "ok", e.accepted);
        e.tick = t;
        e.va = va;
        e.bytes = bytes;
        entries.push_back(e);
    }
    return true;
}

void
TraceRecorder::attach(System &system, unsigned npu)
{
    _header.pageShift = system.config().pageShift;
    _header.source = system.config().name + ".npu" +
                     std::to_string(npu);
    _base = system.now();
    system.dma(npu).setTraceHook(
        [this](Tick at, Addr va, std::uint64_t bytes, bool accepted) {
            _entries.push_back(
                TraceEntry{at - _base, va, bytes, accepted});
        });
}

bool
TraceRecorder::write(const std::string &path) const
{
    return writeTraceJsonl(path, _header, _entries);
}

TraceWorkload::TraceWorkload(TraceWorkloadConfig cfg)
    : Workload("trace"), _cfg(std::move(cfg))
{
}

void
TraceWorkload::onBind()
{
    if (_cfg.entries.empty() && !_cfg.path.empty()) {
        if (!readTraceJsonl(_cfg.path, _cfg.header, _cfg.entries))
            throw WorkloadError("cannot load trace path=" + _cfg.path);
    }

    System &sys = system();
    if (_cfg.header.pageShift != sys.config().pageShift)
        throw WorkloadError("trace pageShift " +
                            std::to_string(_cfg.header.pageShift) +
                            " differs from the system's pageShift " +
                            std::to_string(sys.config().pageShift));

    if (_cfg.mapPages) {
        // Back every page the trace touches, in first-touch order.
        // Counts are frame-layout independent (virtually indexed TLB
        // and path caches), so any deterministic layout reproduces
        // the recorded translation behavior.
        PageTable &pt = sys.pageTable();
        FrameAllocator &node = sys.hbmNode(npuSlot());
        const unsigned shift = sys.config().pageShift;
        for (const TraceEntry &e : _cfg.entries) {
            const Addr last = e.va + (e.bytes ? e.bytes - 1 : 0);
            for (Addr page = pageBase(e.va, shift);
                 page <= pageBase(last, shift);
                 page += pageSize(shift)) {
                if (!pt.isMapped(page))
                    pt.map(page,
                           node.allocate(pageSize(shift),
                                         pageSize(shift)),
                           shift);
            }
        }
    }

    stats::Group &g = stats();
    g.scalar("traceEntries").set(double(_cfg.entries.size()));
}

void
TraceWorkload::onStart()
{
    // The replay owns the slot's translation port for the run; the
    // slot's DMA engine must stay idle (its response callback is
    // replaced here).
    system().translationPort(npuSlot()).setResponseCallback(
        [this](const TranslationResponse &) {
            _responses++;
            maybeFinish();
        });

    if (_cfg.entries.empty()) {
        finish(now());
        return;
    }
    issue(0);
}

void
TraceWorkload::issue(std::size_t index)
{
    const TraceEntry &e = _cfg.entries[index];
    const Tick when = now();
    const bool accepted =
        system().translationPort(npuSlot()).translate(e.va, index);
    if (accepted) {
        _expectedResponses++;
        _acceptedBytes += e.bytes;
    }
    if (accepted != e.accepted) {
        _divergences++;
        stats().scalar("divergences").set(double(_divergences));
    }
    _issued++;

    if (index + 1 < _cfg.entries.size()) {
        const TraceEntry &next = _cfg.entries[index + 1];
        if (next.tick < e.tick)
            throw WorkloadError("trace ticks must be non-decreasing "
                                "(entry " + std::to_string(index + 1) +
                                ")");
        eventQueue().schedule(
            when + (next.tick - e.tick),
            [this, index] { issue(index + 1); });
    } else {
        maybeFinish();
    }
}

void
TraceWorkload::maybeFinish()
{
    if (done() || _issued < _cfg.entries.size() ||
        _responses < _expectedResponses)
        return;
    finish(now());
}

} // namespace neummu
