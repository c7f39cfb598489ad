#include "mmu/translation_router.hh"

#include <algorithm>

#include "common/logging.hh"

namespace neummu {

/**
 * One client-facing port. Tags request ids with the client index in
 * the top byte; the router strips the tag on the way back.
 */
class TranslationRouter::Port : public TranslationEngine
{
  public:
    Port(TranslationRouter &router, unsigned client,
         const std::string &name)
        : _router(router), _client(client), _stats(name),
          _sRequests(_stats.scalar("requests")),
          _sResponses(_stats.scalar("responses")),
          _sBlockedIssues(_stats.scalar("blockedIssues")),
          _sCapRejections(_stats.scalar("capRejections"))
    {
    }

    bool
    translate(Addr va, std::uint64_t id) override
    {
        NEUMMU_ASSERT((id >> clientShift) == 0,
                      "request id collides with the client tag");
        return _router.tryTranslate(_client, va, id);
    }

    void
    setResponseCallback(ResponseCallback cb) override
    {
        _respond = std::move(cb);
    }

    void
    setWakeCallback(WakeCallback cb) override
    {
        _wake = std::move(cb);
    }

    void
    invalidate(Addr va) override
    {
        // Shootdowns are coherence traffic, not per-client capacity:
        // forward straight to the shared engine so one tenant's
        // unmap/migration invalidates the state every client shares.
        _router._engine.invalidate(va);
    }

    const MmuCounts &counts() const override { return _counts; }

  private:
    friend class TranslationRouter;

    TranslationRouter &_router;
    unsigned _client;
    ResponseCallback _respond;
    WakeCallback _wake;
    MmuCounts _counts;
    std::uint64_t _inflight = 0;
    std::uint64_t _maxInflight = 0;
    std::uint64_t _capRejections = 0;
    /** A cap rejection is pending a below-cap retry wake. */
    bool _capBlocked = false;
    stats::Group _stats;
    // Scalar handles resolved once; the translate/response hot path
    // must not pay per-call map lookups.
    stats::Scalar &_sRequests;
    stats::Scalar &_sResponses;
    stats::Scalar &_sBlockedIssues;
    stats::Scalar &_sCapRejections;
};

TranslationRouter::TranslationRouter(TranslationEngine &engine,
                                     unsigned num_clients,
                                     RouterPolicy policy,
                                     unsigned walker_budget,
                                     std::string name)
    : _engine(engine), _policy(policy), _name(std::move(name))
{
    NEUMMU_ASSERT(num_clients > 0, "router needs at least one client");
    if (num_clients >= 256)
        throw ConfigError("numNpus must be < 256 to share one MMU (the "
                          "router's client tag is one byte)");
    _perClientCap =
        walker_budget >= num_clients ? walker_budget / num_clients : 1;
    for (unsigned c = 0; c < num_clients; c++) {
        _ports.push_back(std::make_unique<Port>(
            *this, c, _name + ".client" + std::to_string(c)));
    }

    _engine.setResponseCallback(
        [this](const TranslationResponse &resp) { onResponse(resp); });
    _engine.setWakeCallback([this] { onWake(); });
}

TranslationRouter::~TranslationRouter() = default;

TranslationEngine &
TranslationRouter::port(unsigned client)
{
    NEUMMU_ASSERT(client < _ports.size(), "client index out of range");
    return *_ports[client];
}

std::uint64_t
TranslationRouter::inflight(unsigned client) const
{
    return _ports[client]->_inflight;
}

std::uint64_t
TranslationRouter::capRejections(unsigned client) const
{
    return _ports[client]->_capRejections;
}

std::uint64_t
TranslationRouter::maxInflight(unsigned client) const
{
    return _ports[client]->_maxInflight;
}

const MmuCounts &
TranslationRouter::clientCounts(unsigned client) const
{
    return _ports[client]->_counts;
}

stats::Group &
TranslationRouter::clientStats(unsigned client)
{
    return _ports[client]->_stats;
}

bool
TranslationRouter::tryTranslate(unsigned client, Addr va,
                                std::uint64_t id)
{
    Port &port = *_ports[client];
    port._counts.requests++;
    ++port._sRequests;
    if (_policy == RouterPolicy::Partitioned &&
        port._inflight >= _perClientCap) {
        port._capRejections++;
        port._counts.blockedIssues++;
        port._capBlocked = true;
        ++port._sCapRejections;
        ++port._sBlockedIssues;
        return false;
    }
    const std::uint64_t tagged =
        (std::uint64_t(client) << clientShift) | id;
    if (!_engine.translate(va, tagged)) {
        port._counts.blockedIssues++;
        ++port._sBlockedIssues;
        return false;
    }
    port._inflight++;
    port._maxInflight = std::max(port._maxInflight, port._inflight);
    return true;
}

void
TranslationRouter::onResponse(const TranslationResponse &resp)
{
    const unsigned client = unsigned(resp.id >> clientShift);
    NEUMMU_ASSERT(client < _ports.size(), "response for unknown client");
    Port &port = *_ports[client];
    NEUMMU_ASSERT(port._inflight > 0, "response underflow");
    port._inflight--;
    port._counts.responses++;
    ++port._sResponses;

    TranslationResponse untagged = resp;
    untagged.id = resp.id & ((std::uint64_t(1) << clientShift) - 1);
    NEUMMU_ASSERT(port._respond, "client has no response callback");
    port._respond(untagged);

    // A client the router itself capped is not woken by the engine
    // (the engine never saw its rejected request): wake it as soon as
    // its own completions bring it back under the cap.
    if (port._capBlocked && port._inflight < _perClientCap) {
        port._capBlocked = false;
        if (port._wake)
            port._wake();
    }
}

void
TranslationRouter::onWake()
{
    // Capacity freed in the shared engine: wake every blocked client;
    // ports with nothing pending ignore the wake. Clients with the
    // deepest backlog re-arbitrate first, approximating the FIFO
    // request queue of a real IOMMU front end -- this is what lets a
    // bursty accelerator starve a quiet one under the Shared policy.
    //
    // Stable insertion sort in place: client counts are small (< 256)
    // and this runs once per walk completion, where std::stable_sort
    // would allocate its merge buffer every call.
    _wakeOrder.clear();
    for (auto &port : _ports)
        _wakeOrder.push_back(port.get());
    for (std::size_t i = 1; i < _wakeOrder.size(); i++) {
        Port *p = _wakeOrder[i];
        std::size_t j = i;
        while (j > 0 && _wakeOrder[j - 1]->_inflight < p->_inflight) {
            _wakeOrder[j] = _wakeOrder[j - 1];
            j--;
        }
        _wakeOrder[j] = p;
    }
    for (Port *port : _wakeOrder) {
        if (port->_wake)
            port->_wake();
    }
}

} // namespace neummu
