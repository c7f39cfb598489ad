#include "tlb/tlb.hh"

#include "common/logging.hh"

namespace neummu {

Tlb::Tlb(std::string name, TlbConfig cfg)
    : _cfg(cfg), _index(2 * cfg.entries), _stats(std::move(name)),
      _sHits(_stats.scalar("hits")), _sMisses(_stats.scalar("misses")),
      _sEvictions(_stats.scalar("evictions"))
{
    if (cfg.entries == 0)
        throw ConfigError(_stats.name() + ": TLB entries must be >= 1");
    _waysPerSet = (cfg.ways == 0) ? cfg.entries : cfg.ways;
    if (cfg.entries % _waysPerSet != 0)
        throw ConfigError(_stats.name() + ": TLB entries (" +
                          std::to_string(cfg.entries) +
                          ") must divide evenly into ways (" +
                          std::to_string(cfg.ways) + ")");
    _numSets = cfg.entries / _waysPerSet;
    _slots.resize(cfg.entries);
    _sets.resize(_numSets);
    _freeSlots.reserve(cfg.entries);
    for (std::size_t i = 0; i < cfg.entries; i++)
        _freeSlots.push_back(std::uint32_t(cfg.entries - 1 - i));
}

std::size_t
Tlb::setOf(Addr vpn) const
{
    return std::size_t(vpn % _numSets);
}

void
Tlb::unlink(Set &set, std::uint32_t idx)
{
    Slot &s = _slots[idx];
    if (s.prev != npos)
        _slots[s.prev].next = s.next;
    else
        set.head = s.next;
    if (s.next != npos)
        _slots[s.next].prev = s.prev;
    else
        set.tail = s.prev;
    s.prev = s.next = npos;
    set.size--;
}

void
Tlb::linkFront(Set &set, std::uint32_t idx)
{
    Slot &s = _slots[idx];
    s.prev = npos;
    s.next = set.head;
    if (set.head != npos)
        _slots[set.head].prev = idx;
    set.head = idx;
    if (set.tail == npos)
        set.tail = idx;
    set.size++;
}

bool
Tlb::lookup(Addr vpn, Addr &pfn_out)
{
    const std::uint32_t *idx = _index.find(vpn);
    if (!idx) {
        _misses++;
        ++_sMisses;
        return false;
    }
    // Move to MRU position.
    Set &set = _sets[setOf(vpn)];
    if (set.head != *idx) {
        unlink(set, *idx);
        linkFront(set, *idx);
        _gen++;
    }
    pfn_out = _slots[*idx].pfn;
    _hits++;
    ++_sHits;
    return true;
}

bool
Tlb::probe(Addr vpn) const
{
    return _index.contains(vpn);
}

void
Tlb::insert(Addr vpn, Addr pfn)
{
    _gen++;
    Set &set = _sets[setOf(vpn)];
    if (const std::uint32_t *existing = _index.find(vpn)) {
        _slots[*existing].pfn = pfn;
        if (set.head != *existing) {
            unlink(set, *existing);
            linkFront(set, *existing);
        }
        return;
    }
    std::uint32_t idx;
    if (set.size >= _waysPerSet) {
        // Recycle the true-LRU victim's slot in place.
        idx = set.tail;
        unlink(set, idx);
        _index.erase(_slots[idx].vpn);
        ++_sEvictions;
    } else {
        idx = _freeSlots.back();
        _freeSlots.pop_back();
    }
    _slots[idx].vpn = vpn;
    _slots[idx].pfn = pfn;
    linkFront(set, idx);
    _index.insert(vpn, idx);
}

void
Tlb::invalidate(Addr vpn)
{
    const std::uint32_t *idx = _index.find(vpn);
    if (!idx)
        return;
    const std::uint32_t slot = *idx;
    unlink(_sets[setOf(vpn)], slot);
    _index.erase(vpn);
    _freeSlots.push_back(slot);
    _gen++;
}

void
Tlb::flush()
{
    _gen++;
    _index.clear();
    for (Set &set : _sets)
        set = Set{};
    _freeSlots.clear();
    for (std::size_t i = 0; i < _cfg.entries; i++)
        _freeSlots.push_back(std::uint32_t(_cfg.entries - 1 - i));
    for (Slot &s : _slots)
        s = Slot{};
}

std::size_t
Tlb::size() const
{
    return _index.size();
}

} // namespace neummu
