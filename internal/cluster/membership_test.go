package cluster

import (
	"context"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"ftclust/internal/obs"
)

func TestMergeFreshnessRules(t *testing.T) {
	m := newMembership("self:1")
	t0 := time.Unix(1700000000, 0)

	changes := m.merge([]PeerInfo{{Addr: "p1:1", Epoch: 5, Heartbeat: 10}}, t0)
	if len(changes) != 1 || changes[0].kind != changeJoin || changes[0].addr != "p1:1" {
		t.Fatalf("changes = %+v, want one join for p1:1", changes)
	}
	// Self entries and empty addresses are ignored.
	if changes := m.merge([]PeerInfo{{Addr: "self:1", Epoch: 99}, {Addr: ""}}, t0); len(changes) != 0 {
		t.Fatalf("self/empty entries produced changes: %+v", changes)
	}

	// Stale: older epoch, and equal epoch without heartbeat advance.
	m.merge([]PeerInfo{{Addr: "p1:1", Epoch: 4, Heartbeat: 99}}, t0.Add(time.Second))
	m.merge([]PeerInfo{{Addr: "p1:1", Epoch: 5, Heartbeat: 10}}, t0.Add(time.Second))
	if p := m.peers["p1:1"]; !p.lastSeen.Equal(t0) {
		t.Fatal("stale entry refreshed lastSeen")
	}

	// Fresh: heartbeat advance, then epoch advance (restart supersedes
	// even with a lower heartbeat).
	m.merge([]PeerInfo{{Addr: "p1:1", Epoch: 5, Heartbeat: 11}}, t0.Add(2*time.Second))
	if p := m.peers["p1:1"]; !p.lastSeen.Equal(t0.Add(2*time.Second)) || p.info.Heartbeat != 11 {
		t.Fatalf("heartbeat advance not applied: %+v", p)
	}
	changes = m.merge([]PeerInfo{{Addr: "p1:1", Epoch: 6, Heartbeat: 1}}, t0.Add(3*time.Second))
	if p := m.peers["p1:1"]; p.info.Epoch != 6 || p.info.Heartbeat != 1 {
		t.Fatalf("new incarnation not adopted: %+v", p)
	}
	if len(changes) != 1 || changes[0].kind != changeIncarnation ||
		changes[0].oldEpoch != 5 || changes[0].newEpoch != 6 {
		t.Fatalf("epoch advance changes = %+v, want one incarnation 5→6", changes)
	}
}

func TestTransitionClassification(t *testing.T) {
	m := newMembership("self:1")
	t0 := time.Unix(1700000000, 0)

	// A seed placeholder (epoch 0) turning real is a join, not an
	// incarnation bump.
	m.insertSeed("seed:1", t0)
	changes := m.merge([]PeerInfo{{Addr: "seed:1", Epoch: 7, Heartbeat: 1}}, t0.Add(time.Second))
	if len(changes) != 1 || changes[0].kind != changeJoin || changes[0].newEpoch != 7 {
		t.Fatalf("seed promotion changes = %+v, want one join", changes)
	}

	// touch reports the same transitions as merge.
	if changes := m.touch(PeerInfo{Addr: "new:1", Epoch: 3, Heartbeat: 1}, t0); len(changes) != 1 || changes[0].kind != changeJoin {
		t.Fatalf("touch insert changes = %+v, want one join", changes)
	}
	if changes := m.touch(PeerInfo{Addr: "new:1", Epoch: 3, Heartbeat: 2}, t0.Add(time.Second)); len(changes) != 0 {
		t.Fatalf("heartbeat-only touch produced changes: %+v", changes)
	}
	if changes := m.touch(PeerInfo{Addr: "new:1", Epoch: 9, Heartbeat: 0}, t0.Add(2*time.Second)); len(changes) != 1 || changes[0].kind != changeIncarnation {
		t.Fatalf("restart touch changes = %+v, want one incarnation", changes)
	}

	// statuses renders rows ascending by address.
	sts := m.statuses()
	if len(sts) != 2 || sts[0].Addr != "new:1" || sts[1].Addr != "seed:1" {
		t.Fatalf("statuses = %+v", sts)
	}
	if sts[0].State != "alive" || sts[0].Epoch != 9 {
		t.Fatalf("status row wrong: %+v", sts[0])
	}
}

func TestAgeSuspicionAndEviction(t *testing.T) {
	m := newMembership("self:1")
	t0 := time.Unix(1700000000, 0)
	m.merge([]PeerInfo{
		{Addr: "fresh:1", Epoch: 1, Heartbeat: 1},
		{Addr: "slow:1", Epoch: 1, Heartbeat: 1},
		{Addr: "dead:1", Epoch: 1, Heartbeat: 1},
	}, t0)
	// Refresh "fresh" so only the others idle out.
	m.merge([]PeerInfo{{Addr: "fresh:1", Epoch: 1, Heartbeat: 2}}, t0.Add(9*time.Second))
	m.merge([]PeerInfo{{Addr: "slow:1", Epoch: 1, Heartbeat: 2}}, t0.Add(4*time.Second))

	suspected, evicted := m.age(t0.Add(10*time.Second), 5*time.Second, 9*time.Second)
	if !reflect.DeepEqual(suspected, []string{"slow:1"}) {
		t.Fatalf("suspected = %v, want [slow:1]", suspected)
	}
	if !reflect.DeepEqual(evicted, []string{"dead:1"}) {
		t.Fatalf("evicted = %v, want [dead:1]", evicted)
	}
	if !m.isSuspect("slow:1") || m.isSuspect("fresh:1") || m.isSuspect("dead:1") {
		t.Fatal("suspicion flags wrong after age")
	}
	if got := m.members(); !reflect.DeepEqual(got, []string{"fresh:1", "self:1", "slow:1"}) {
		t.Fatalf("members after eviction = %v", got)
	}

	// A suspect stays a ring member, and a fresh heartbeat clears it.
	m.merge([]PeerInfo{{Addr: "slow:1", Epoch: 1, Heartbeat: 3}}, t0.Add(11*time.Second))
	if m.isSuspect("slow:1") {
		t.Fatal("fresh heartbeat must clear suspicion")
	}
}

// Two survivors of a dead peer evict it at different times (one heard
// its last heartbeat later). The one that evicts first keeps receiving
// the other's row for the dead peer; without a tombstone it readmits the
// row as fresh, the other readmits it back after its own eviction, and
// the dead row circulates forever.
func TestEvictedPeerIsNotReadmittedByGossip(t *testing.T) {
	const suspectAfter, evictAfter = 2 * time.Second, 5 * time.Second
	t0 := time.Unix(1700000000, 0)
	a, b := newMembership("a:1"), newMembership("b:1")
	selfA := PeerInfo{Addr: "a:1", Epoch: 1}
	selfB := PeerInfo{Addr: "b:1", Epoch: 1}
	dead := PeerInfo{Addr: "dead:1", Epoch: 3, Heartbeat: 40}
	a.merge([]PeerInfo{dead}, t0)
	b.merge([]PeerInfo{dead}, t0.Add(1500*time.Millisecond))

	// 30 s of push-pull exchanges every 500 ms, then aging, as the gossip
	// loop runs them.
	for tick := 1; tick <= 60; tick++ {
		now := t0.Add(time.Duration(tick) * 500 * time.Millisecond)
		selfA.Heartbeat++
		selfB.Heartbeat++
		a.touch(selfB, now)
		a.merge(b.digest(selfB, 0), now)
		b.touch(selfA, now)
		b.merge(a.digest(selfA, 0), now)
		a.age(now, suspectAfter, evictAfter)
		b.age(now, suspectAfter, evictAfter)
	}
	if got := a.members(); !reflect.DeepEqual(got, []string{"a:1", "b:1"}) {
		t.Errorf("a's members = %v, want [a:1 b:1]", got)
	}
	if got := b.members(); !reflect.DeepEqual(got, []string{"a:1", "b:1"}) {
		t.Errorf("b's members = %v, want [a:1 b:1]", got)
	}
	// Both evicted the dead peer more than 2×evictAfter ago, so both
	// tombstones are pruned.
	if len(a.gone) != 0 || len(b.gone) != 0 {
		t.Errorf("tombstones not pruned: a=%v b=%v", a.gone, b.gone)
	}
}

// A tombstone blocks only entries that are not fresher than it: a
// heartbeat advance or a restart readmits the peer through gossip, and
// direct contact readmits it unconditionally.
func TestTombstoneReadmission(t *testing.T) {
	const suspectAfter, evictAfter = 2 * time.Second, 5 * time.Second
	t0 := time.Unix(1700000000, 0)
	m := newMembership("self:1")
	p := PeerInfo{Addr: "p:1", Epoch: 3, Heartbeat: 7}
	evict := func(at time.Time) {
		t.Helper()
		if _, evicted := m.age(at, suspectAfter, evictAfter); !reflect.DeepEqual(evicted, []string{"p:1"}) {
			t.Fatalf("evicted = %v, want [p:1]", evicted)
		}
	}
	member := func() bool { return m.size() == 2 }

	m.merge([]PeerInfo{p}, t0)
	evict(t0.Add(6 * time.Second))
	if m.merge([]PeerInfo{p}, t0.Add(7*time.Second)); member() {
		t.Fatal("gossip with the evicted heartbeat readmitted the peer")
	}
	p.Heartbeat = 8
	if m.merge([]PeerInfo{p}, t0.Add(8*time.Second)); !member() {
		t.Fatal("a heartbeat advance past the tombstone must readmit the peer")
	}
	evict(t0.Add(14 * time.Second))
	if m.merge([]PeerInfo{{Addr: "p:1", Epoch: 4, Heartbeat: 1}}, t0.Add(15*time.Second)); !member() {
		t.Fatal("a restarted incarnation must readmit the peer")
	}
	evict(t0.Add(21 * time.Second))
	if m.touch(PeerInfo{Addr: "p:1", Epoch: 4, Heartbeat: 1}, t0.Add(22*time.Second)); !member() {
		t.Fatal("direct contact must readmit the peer")
	}
	if len(m.gone) != 0 {
		t.Fatalf("readmitted peer kept its tombstone: %v", m.gone)
	}
}

func TestTouchRefreshesOnEqualHeartbeat(t *testing.T) {
	m := newMembership("self:1")
	t0 := time.Unix(1700000000, 0)
	m.merge([]PeerInfo{{Addr: "p:1", Epoch: 3, Heartbeat: 7}}, t0)

	// merge with an equal heartbeat is stale; touch is direct contact and
	// refreshes even without an advance.
	m.merge([]PeerInfo{{Addr: "p:1", Epoch: 3, Heartbeat: 7}}, t0.Add(time.Second))
	if p := m.peers["p:1"]; !p.lastSeen.Equal(t0) {
		t.Fatal("merge must not refresh on equal heartbeat")
	}
	m.touch(PeerInfo{Addr: "p:1", Epoch: 3, Heartbeat: 7}, t0.Add(time.Second))
	if p := m.peers["p:1"]; !p.lastSeen.Equal(t0.Add(time.Second)) {
		t.Fatal("touch must refresh on equal heartbeat (direct contact)")
	}
}

func TestDigestBoundedAndSorted(t *testing.T) {
	m := newMembership("self:1")
	t0 := time.Unix(1700000000, 0)
	for i := 0; i < 10; i++ {
		m.merge([]PeerInfo{{Addr: string(rune('a'+i)) + ":1", Epoch: 1, Heartbeat: int64(i)}},
			t0.Add(time.Duration(i)*time.Second))
	}
	self := PeerInfo{Addr: "self:1", Epoch: 9, Heartbeat: 42}
	d := m.digest(self, 4)
	if len(d) != 4 {
		t.Fatalf("digest length %d, want 4 (self + 3 freshest)", len(d))
	}
	foundSelf := false
	for i, e := range d {
		if e.Addr == "self:1" {
			foundSelf = true
		}
		if i > 0 && d[i-1].Addr >= e.Addr {
			t.Fatalf("digest not strictly sorted by addr: %v", d)
		}
	}
	if !foundSelf {
		t.Fatal("digest must always carry self")
	}
	// Freshest-first truncation: the oldest peers (a..f) are dropped.
	for _, e := range d {
		if e.Addr == "a:1" || e.Addr == "b:1" {
			t.Fatalf("digest kept stale entry %s over fresher ones", e.Addr)
		}
	}
}

func TestPickTargetsPrefersAlive(t *testing.T) {
	m := newMembership("self:1")
	t0 := time.Unix(1700000000, 0)
	m.merge([]PeerInfo{
		{Addr: "alive:1", Epoch: 1, Heartbeat: 5},
		{Addr: "stale:1", Epoch: 1, Heartbeat: 1},
	}, t0)
	m.merge([]PeerInfo{{Addr: "alive:1", Epoch: 1, Heartbeat: 6}}, t0.Add(8*time.Second))
	m.age(t0.Add(10*time.Second), 5*time.Second, time.Hour)

	r := rand.New(rand.NewSource(1))
	got := m.pickTargets(r, 2)
	if !reflect.DeepEqual(got, []string{"alive:1"}) {
		t.Fatalf("pickTargets = %v, want only the alive peer", got)
	}

	// With every peer suspect, shuffling still reaches out (a suspect
	// that answers clears itself).
	m.age(t0.Add(time.Hour/2), 5*time.Second, time.Hour)
	got = m.pickTargets(r, 2)
	if len(got) != 2 {
		t.Fatalf("pickTargets over all-suspect view = %v, want both", got)
	}
}

// Two nodes wired through real HTTP handlers discover each other in one
// push-pull exchange: A learns B from the reply, B learns A from the
// inbound message.
func TestGossipExchangeConverges(t *testing.T) {
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }
	mk := func(self string, seeds []string) *Node {
		n, err := New(Config{
			Self:   self,
			Seeds:  seeds,
			Now:    clock,
			Rand:   rand.New(rand.NewSource(1)),
			Logger: slog.Default(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	var b *Node
	tsB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.HandleGossip(w, r)
	}))
	defer tsB.Close()
	addrB := tsB.Listener.Addr().String()

	a := mk("a.example:1", []string{addrB})
	b = mk(addrB, nil)

	a.hbSeq.Add(1)
	b.hbSeq.Add(1)
	a.exchange(context.Background(), addrB)

	if got := a.Members(); !reflect.DeepEqual(got, sortedAddrs("a.example:1", addrB)) {
		t.Fatalf("A's view after exchange = %v", got)
	}
	if got := b.Members(); !reflect.DeepEqual(got, sortedAddrs("a.example:1", addrB)) {
		t.Fatalf("B's view after exchange = %v", got)
	}
	if a.Metrics().Heartbeats.Value() != 1 || b.Metrics().Heartbeats.Value() != 1 {
		t.Fatalf("heartbeat counters: a=%d b=%d, want 1 each",
			a.Metrics().Heartbeats.Value(), b.Metrics().Heartbeats.Value())
	}
}

func TestNodeEmitsMembershipEvents(t *testing.T) {
	now := time.Unix(1700000000, 0)
	events := obs.NewEventRing(16)
	n, err := New(Config{
		Self:   "self:1",
		Now:    func() time.Time { return now },
		Rand:   rand.New(rand.NewSource(1)),
		Events: events,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A gossiped join produces a join event plus a route-change marker.
	n.noteChanges(now, n.mem.merge([]PeerInfo{{Addr: "p:1", Epoch: 4, Heartbeat: 1}}, now))
	got := events.List(0)
	if len(got) != 2 || got[1].Type != "join" || got[0].Type != "route-change" {
		t.Fatalf("events after join = %+v", got)
	}
	if got[1].Attrs["peer"] != "p:1" || got[1].Attrs["epoch"] != "4" {
		t.Fatalf("join attrs = %+v", got[1].Attrs)
	}
	if got[0].Attrs["members"] != "2" || got[0].Attrs["cause"] != "join" {
		t.Fatalf("route-change attrs = %+v", got[0].Attrs)
	}

	// A restart produces an incarnation event, no route change.
	n.noteChanges(now, n.mem.merge([]PeerInfo{{Addr: "p:1", Epoch: 9, Heartbeat: 1}}, now))
	if got := events.List(1); got[0].Type != "incarnation" || got[0].Attrs["old_epoch"] != "4" {
		t.Fatalf("events after restart = %+v", got)
	}

	// Aging into suspicion and eviction lands in the ring too.
	now = now.Add(time.Hour)
	n.round(context.Background())
	types := make(map[string]bool)
	for _, e := range events.List(0) {
		types[e.Type] = true
	}
	if !types["suspect"] && !types["evict"] {
		t.Fatalf("aging produced no liveness events: %+v", events.List(0))
	}
}

func sortedAddrs(a, b string) []string {
	if a < b {
		return []string{a, b}
	}
	return []string{b, a}
}
