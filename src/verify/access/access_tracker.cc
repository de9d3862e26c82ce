/**
 * @file
 * Cross-component access tracker implementation.
 */

#include "verify/access/access_tracker.hh"

#include <algorithm>
#include <climits>
#include <sstream>

#include "common/json.hh"
#include "common/log.hh"
#include "sim/clocked.hh"

namespace nord {

const char *
channelKindName(ChannelKind k)
{
    switch (k) {
      case ChannelKind::kFlitPush: return "flit_push";
      case ChannelKind::kFlitDeliver: return "flit_deliver";
      case ChannelKind::kCreditPush: return "credit_push";
      case ChannelKind::kCreditDeliver: return "credit_deliver";
      case ChannelKind::kLocalInject: return "local_inject";
      case ChannelKind::kEjection: return "ejection";
      case ChannelKind::kLocalCredit: return "local_credit";
      case ChannelKind::kWakeup: return "wakeup";
      case ChannelKind::kBypassLatch: return "bypass_latch";
      case ChannelKind::kBypassDrive: return "bypass_drive";
      case ChannelKind::kPowerSignal: return "power_signal";
      case ChannelKind::kBypassControl: return "bypass_control";
      case ChannelKind::kPowerObserve: return "power_observe";
      case ChannelKind::kRouterObserve: return "router_observe";
      case ChannelKind::kNiObserve: return "ni_observe";
      case ChannelKind::kDelivery: return "delivery";
      case ChannelKind::kInjection: return "injection";
      case ChannelKind::kFault: return "fault";
      case ChannelKind::kAudit: return "audit";
      case ChannelKind::kRepair: return "repair";
    }
    return "unknown";
}

const char *
visibilityName(Visibility v)
{
    switch (v) {
      case Visibility::kSameCycle: return "same_cycle";
      case Visibility::kNextCycle: return "next_cycle";
      case Visibility::kAny: return "any";
    }
    return "unknown";
}

namespace access {

TickContext &
tickContext()
{
    static thread_local TickContext ctx;
    return ctx;
}

}  // namespace access

// ---------------------------------------------------------------------------
// OwnershipDeclarator
// ---------------------------------------------------------------------------

void
OwnershipDeclarator::owns(const std::string &domain)
{
    tracker_->components_[componentId_].domain = domain;
}

void
OwnershipDeclarator::writes(const Clocked *target, ChannelKind kind,
                            Visibility vis)
{
    const int to = tracker_->idOf(target);
    if (to < 0)
        return;
    tracker_->declarations_[{componentId_, to, kind, AccessMode::kWrite}] =
        vis;
}

void
OwnershipDeclarator::reads(const Clocked *target, ChannelKind kind)
{
    const int to = tracker_->idOf(target);
    if (to < 0)
        return;
    tracker_->declarations_[{componentId_, to, kind, AccessMode::kRead}] =
        Visibility::kAny;
}

void
OwnershipDeclarator::writesAny()
{
    tracker_->components_[componentId_].wildcardWrite = true;
}

void
OwnershipDeclarator::readsAny()
{
    tracker_->components_[componentId_].wildcardRead = true;
}

// ---------------------------------------------------------------------------
// AccessTracker
// ---------------------------------------------------------------------------

AccessTracker::~AccessTracker() = default;

bool
AccessTracker::DeclKey::operator<(const DeclKey &o) const
{
    if (from != o.from)
        return from < o.from;
    if (to != o.to)
        return to < o.to;
    if (kind != o.kind)
        return kind < o.kind;
    return mode < o.mode;
}

bool
AccessTracker::EdgeKey::operator<(const EdgeKey &o) const
{
    if (from != o.from)
        return from < o.from;
    if (to != o.to)
        return to < o.to;
    if (kind != o.kind)
        return kind < o.kind;
    return mode < o.mode;
}

void
AccessTracker::registerComponent(const Clocked *c)
{
    NORD_ASSERT(c != nullptr, "null component registered with tracker");
    if (ids_.count(c) != 0)
        return;
    Component comp;
    comp.object = c;
    comp.name = c->name();
    comp.order = static_cast<int>(components_.size());
    ids_[c] = comp.order;
    components_.push_back(std::move(comp));
}

void
AccessTracker::collectDeclarations()
{
    for (size_t i = 0; i < components_.size(); ++i) {
        OwnershipDeclarator d(this, static_cast<int>(i));
        components_[i].object->declareOwnership(d);
    }
    collected_ = true;
}

void
AccessTracker::declareChannel(const Clocked *from, const Clocked *to,
                              ChannelKind kind, AccessMode mode,
                              Visibility vis)
{
    const int f = idOf(from);
    const int t = idOf(to);
    NORD_ASSERT(f >= 0 && t >= 0,
                "declareChannel on unregistered component");
    declarations_[{f, t, kind, mode}] = vis;
}

int
AccessTracker::idOf(const Clocked *c) const
{
    auto it = ids_.find(c);
    return it == ids_.end() ? -1 : it->second;
}

const char *
AccessTracker::nameOf(int id) const
{
    if (id < 0 || id >= static_cast<int>(components_.size()))
        return "external";
    return components_[id].name.c_str();
}

void
AccessTracker::record(const Clocked *target, ChannelKind kind,
                      AccessMode mode)
{
    const access::TickContext &ctx = access::tickContext();
    if (ctx.current == nullptr || ctx.current == target)
        return;  // outside any tick, or an access to the own domain
    const int from = idOf(ctx.current);
    const int to = idOf(target);
    if (from < 0 || to < 0)
        return;  // components not under this tracker (e.g. test fixtures)

    EdgeData &e = observed_[{from, to, kind, mode}];
    if (e.count == 0) {
        e.firstCycle = ctx.now;
        e.minRootOrder = INT_MAX;
        e.maxRootOrder = -1;
    }
    ++e.count;
    e.lastCycle = ctx.now;
    ++totalAccesses_;

    // Root slot, for the registration-order audit. Wildcard writers
    // (fault injector, auditor repairs) are deliberately out of the
    // ordering contract; do not fold their slots into the bounds.
    const int rootId = idOf(ctx.root);
    if (rootId >= 0 && !components_[rootId].wildcardWrite) {
        const int slot = components_[rootId].order;
        e.minRootOrder = std::min(e.minRootOrder, slot);
        e.maxRootOrder = std::max(e.maxRootOrder, slot);
    }
}

void
AccessTracker::beginTick(const Clocked *c, Cycle now)
{
    access::TickContext &ctx = access::tickContext();
    ctx.tracker = this;
    ctx.current = c;
    ctx.root = c;
    ctx.now = now;
}

void
AccessTracker::endTick()
{
    access::TickContext &ctx = access::tickContext();
    ctx.tracker = nullptr;
    ctx.current = nullptr;
    ctx.root = nullptr;
}

bool
AccessTracker::isDeclared(int from, int to, ChannelKind kind,
                          AccessMode mode, Visibility *vis,
                          bool *viaWildcard) const
{
    auto it = declarations_.find({from, to, kind, mode});
    if (it != declarations_.end()) {
        *vis = it->second;
        *viaWildcard = false;
        return true;
    }
    const Component &f = components_[from];
    if ((mode == AccessMode::kWrite && f.wildcardWrite) ||
        (mode == AccessMode::kRead && f.wildcardRead)) {
        *vis = Visibility::kAny;
        *viaWildcard = true;
        return true;
    }
    return false;
}

std::vector<AccessTracker::Edge>
AccessTracker::edges() const
{
    std::vector<Edge> result;
    result.reserve(observed_.size());
    for (const auto &[key, data] : observed_) {
        Edge e;
        e.from = key.from;
        e.to = key.to;
        e.kind = key.kind;
        e.mode = key.mode;
        e.count = data.count;
        e.firstCycle = data.firstCycle;
        e.lastCycle = data.lastCycle;
        e.minRootOrder = data.minRootOrder;
        e.maxRootOrder = data.maxRootOrder;
        e.declared = isDeclared(key.from, key.to, key.kind, key.mode,
                                &e.visibility, &e.viaWildcard);
        result.push_back(e);
    }
    return result;
}

std::uint64_t
AccessTracker::edgeCount(const std::string &fromName,
                         const std::string &toName, ChannelKind kind) const
{
    std::uint64_t total = 0;
    for (const auto &[key, data] : observed_) {
        if (key.kind == kind && fromName == nameOf(key.from) &&
            toName == nameOf(key.to))
            total += data.count;
    }
    return total;
}

std::vector<AccessTracker::Violation>
AccessTracker::verify() const
{
    std::vector<Violation> out;
    for (const Edge &e : edges()) {
        const char *fromName = nameOf(e.from);
        const char *toName = nameOf(e.to);
        if (e.mode == AccessMode::kWrite && !e.declared) {
            Violation v;
            v.type = Violation::Type::kUndeclaredWrite;
            v.what = std::string("undeclared write ") + fromName + " -> " +
                     toName + " via " + channelKindName(e.kind) + " (x" +
                     std::to_string(e.count) +
                     "): would be a data race under per-shard execution";
            out.push_back(std::move(v));
            continue;
        }
        if (e.mode != AccessMode::kWrite || e.viaWildcard ||
            e.maxRootOrder < 0)
            continue;
        const int targetSlot = components_[e.to].order;
        const char *why = nullptr;
        if (e.visibility == Visibility::kSameCycle &&
            e.maxRootOrder > targetSlot) {
            why = "same-cycle channel written from a kernel slot after "
                  "the consumer's (value would arrive a cycle late)";
        } else if (e.visibility == Visibility::kNextCycle &&
                   e.minRootOrder < targetSlot) {
            why = "next-cycle channel written from a kernel slot before "
                  "the consumer's (value would arrive a cycle early)";
        }
        if (why != nullptr) {
            Violation v;
            v.type = Violation::Type::kOrderViolation;
            v.what = std::string("registration-order violation on ") +
                     fromName + " -> " + toName + " via " +
                     channelKindName(e.kind) + " [" +
                     visibilityName(e.visibility) + ", root slots " +
                     std::to_string(e.minRootOrder) + ".." +
                     std::to_string(e.maxRootOrder) + ", target slot " +
                     std::to_string(targetSlot) + "]: " + why;
            out.push_back(std::move(v));
        }
    }
    return out;
}

std::vector<std::string>
AccessTracker::undeclaredReads() const
{
    std::vector<std::string> out;
    for (const Edge &e : edges()) {
        if (e.mode != AccessMode::kRead || e.declared)
            continue;
        out.push_back(std::string("undeclared read ") + nameOf(e.from) +
                      " -> " + nameOf(e.to) + " via " +
                      channelKindName(e.kind) + " (x" +
                      std::to_string(e.count) + ")");
    }
    return out;
}

std::string
AccessTracker::dot() const
{
    std::ostringstream os;
    os << "digraph nord_access {\n"
       << "  rankdir=LR;\n"
       << "  node [shape=box, fontsize=9];\n";
    for (const Component &c : components_) {
        os << "  c" << c.order << " [label=\"" << c.name << "\\nslot "
           << c.order << "\"";
        if (c.wildcardWrite || c.wildcardRead)
            os << ", style=dashed";
        os << "];\n";
    }
    for (const Edge &e : edges()) {
        os << "  c" << e.from << " -> c" << e.to << " [label=\""
           << channelKindName(e.kind) << " x" << e.count << "\"";
        if (e.mode == AccessMode::kWrite && !e.declared)
            os << ", color=red, penwidth=2";
        else if (e.mode == AccessMode::kRead)
            os << ", color=gray50, style=dashed";
        else if (e.viaWildcard)
            os << ", color=orange";
        os << "];\n";
    }
    // Declared channels never exercised by this run: coverage hints.
    for (const auto &[key, vis] : declarations_) {
        if (observed_.count({key.from, key.to, key.kind, key.mode}) != 0)
            continue;
        os << "  c" << key.from << " -> c" << key.to << " [label=\""
           << channelKindName(key.kind)
           << " (declared, unobserved)\", color=blue, style=dotted];\n";
        (void)vis;
    }
    os << "}\n";
    return os.str();
}

std::string
AccessTracker::json() const
{
    std::ostringstream os;
    os << "{\n  \"components\": [\n";
    for (size_t i = 0; i < components_.size(); ++i) {
        const Component &c = components_[i];
        os << "    {\"id\": " << c.order << ", \"name\": \""
           << jsonEscape(c.name) << "\", \"domain\": \""
           << jsonEscape(c.domain) << "\", \"wildcard_write\": "
           << (c.wildcardWrite ? "true" : "false")
           << ", \"wildcard_read\": "
           << (c.wildcardRead ? "true" : "false") << "}"
           << (i + 1 < components_.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"edges\": [\n";
    const std::vector<Edge> es = edges();
    for (size_t i = 0; i < es.size(); ++i) {
        const Edge &e = es[i];
        os << "    {\"from\": \"" << jsonEscape(nameOf(e.from))
           << "\", \"to\": \"" << jsonEscape(nameOf(e.to))
           << "\", \"kind\": \"" << channelKindName(e.kind)
           << "\", \"mode\": \""
           << (e.mode == AccessMode::kWrite ? "write" : "read")
           << "\", \"count\": " << e.count << ", \"declared\": "
           << (e.declared ? "true" : "false") << ", \"wildcard\": "
           << (e.viaWildcard ? "true" : "false") << ", \"visibility\": \""
           << visibilityName(e.visibility) << "\", \"first_cycle\": "
           << e.firstCycle << ", \"last_cycle\": " << e.lastCycle << "}"
           << (i + 1 < es.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"violations\": [\n";
    const std::vector<Violation> vs = verify();
    for (size_t i = 0; i < vs.size(); ++i) {
        os << "    \"" << jsonEscape(vs[i].what) << "\""
           << (i + 1 < vs.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"undeclared_reads\": [\n";
    const std::vector<std::string> rs = undeclaredReads();
    for (size_t i = 0; i < rs.size(); ++i) {
        os << "    \"" << jsonEscape(rs[i]) << "\""
           << (i + 1 < rs.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

void
AccessTracker::dumpDot(std::FILE *out) const
{
    const std::string s = dot();
    std::fwrite(s.data(), 1, s.size(), out);
}

void
AccessTracker::dumpJson(std::FILE *out) const
{
    const std::string s = json();
    std::fwrite(s.data(), 1, s.size(), out);
}

}  // namespace nord
