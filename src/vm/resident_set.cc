#include "vm/resident_set.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/text.hh"

namespace neummu {

std::string
evictionPolicyName(EvictionPolicy policy)
{
    switch (policy) {
      case EvictionPolicy::Clock: return "clock";
      case EvictionPolicy::Lru: return "lru";
    }
    NEUMMU_PANIC("unknown eviction policy");
}

EvictionPolicy
evictionPolicyFromName(const std::string &name)
{
    const std::string want = lowered(name);
    for (const EvictionPolicy p : {EvictionPolicy::Clock, EvictionPolicy::Lru})
        if (want == evictionPolicyName(p))
            return p;
    throw ConfigError("unknown eviction policy '" + name + "' (clock|lru)");
}

ResidentSet::ResidentSet(EvictionPolicy policy) : _policy(policy) {}

std::uint32_t
ResidentSet::slotOf(Addr page) const
{
    const std::uint32_t *idx = _index.find(page);
    return idx ? *idx : npos;
}

void
ResidentSet::unlink(std::uint32_t idx)
{
    Slot &s = _slots[idx];
    if (s.prev != npos)
        _slots[s.prev].next = s.next;
    else
        _head = s.next;
    if (s.next != npos)
        _slots[s.next].prev = s.prev;
    else
        _tail = s.prev;
    s.prev = s.next = npos;
}

void
ResidentSet::linkFront(std::uint32_t idx)
{
    Slot &s = _slots[idx];
    s.prev = npos;
    s.next = _head;
    if (_head != npos)
        _slots[_head].prev = idx;
    _head = idx;
    if (_tail == npos)
        _tail = idx;
}

void
ResidentSet::insert(Addr page)
{
    NEUMMU_ASSERT(!_index.contains(page),
                  "page inserted into the resident set twice");
    std::uint32_t idx;
    if (!_freeSlots.empty()) {
        idx = _freeSlots.back();
        _freeSlots.pop_back();
    } else {
        idx = std::uint32_t(_slots.size());
        _slots.push_back(Slot{});
    }
    Slot &s = _slots[idx];
    s.page = page;
    s.referenced = true;
    linkFront(idx);
    _index.insert(page, idx);
}

void
ResidentSet::touch(Addr page)
{
    const std::uint32_t idx = slotOf(page);
    if (idx == npos)
        return;
    if (_policy == EvictionPolicy::Clock) {
        _slots[idx].referenced = true;
        return;
    }
    if (_head != idx) {
        unlink(idx);
        linkFront(idx);
    }
}

bool
ResidentSet::remove(Addr page)
{
    const std::uint32_t idx = slotOf(page);
    if (idx == npos)
        return false;
    // Never leave the CLOCK hand dangling on a freed slot.
    if (_hand == idx) {
        const Slot &s = _slots[idx];
        _hand = (s.prev != npos) ? s.prev : npos;
    }
    unlink(idx);
    _index.erase(page);
    _slots[idx].page = invalidAddr;
    _freeSlots.push_back(idx);
    return true;
}

Addr
ResidentSet::evictVictim()
{
    return evictVictim([](Addr) { return true; });
}

} // namespace neummu
