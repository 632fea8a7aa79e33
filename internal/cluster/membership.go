package cluster

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// PeerInfo is one member's wire entry in a gossip message and the
// durable part of its table row: the advertised address, the sender
// process's incarnation epoch (a restart supersedes the old
// incarnation), and its monotonically increasing heartbeat counter.
// A received entry refreshes liveness only when it is strictly fresher
// — higher epoch, or same epoch with a higher heartbeat — so replayed
// or looping digests cannot keep a dead peer alive.
type PeerInfo struct {
	Addr      string `json:"addr"`
	Epoch     int64  `json:"epoch"`
	Heartbeat int64  `json:"heartbeat"`
}

// peerState is a member's liveness classification.
type peerState int

const (
	peerAlive peerState = iota
	peerSuspect
)

// peer is one remote member's table row.
type peer struct {
	info     PeerInfo
	lastSeen time.Time // local receipt time of the freshest heartbeat
	state    peerState
}

// Membership transition kinds, as they appear in the event log.
const (
	changeJoin        = "join"        // first real contact with a member
	changeIncarnation = "incarnation" // known member restarted (epoch advanced)
)

// memberChange records one transition produced by merge or touch, the
// input to the node's event log. A seed row (epoch 0) turning into a
// real incarnation is a join, not an incarnation bump: the bootstrap
// placeholder was never a live member.
type memberChange struct {
	addr     string
	kind     string
	oldEpoch int64
	newEpoch int64
}

// classify turns an epoch advance into the transition it represents.
func classify(addr string, oldEpoch, newEpoch int64) memberChange {
	kind := changeIncarnation
	if oldEpoch == 0 {
		kind = changeJoin
	}
	return memberChange{addr: addr, kind: kind, oldEpoch: oldEpoch, newEpoch: newEpoch}
}

// membership is the mutex-guarded peer table. All methods are safe for
// concurrent use by the gossip loop, the HTTP handlers and the router;
// none of them performs I/O or blocks while holding the lock.
type membership struct {
	mu    sync.Mutex
	self  string
	peers map[string]*peer
	// gone holds a tombstone per evicted peer: its last known entry and
	// the eviction time. Without it a survivor that evicted a dead peer
	// readmits it from the digest of a survivor that has not yet, and
	// the two pass the dead row back and forth forever.
	gone map[string]tombstone
}

// tombstone is an evicted peer's last table entry.
type tombstone struct {
	info      PeerInfo
	evictedAt time.Time
}

func newMembership(self string) *membership {
	return &membership{self: self, peers: make(map[string]*peer), gone: make(map[string]tombstone)}
}

// fresher reports whether a is a strictly newer liveness entry than b:
// a higher epoch, or the same epoch with a higher heartbeat.
func fresher(a, b PeerInfo) bool {
	return a.Epoch > b.Epoch || (a.Epoch == b.Epoch && a.Heartbeat > b.Heartbeat)
}

// insertSeed primes the table with a bootstrap address. Epoch 0 loses to
// any real incarnation, so the first exchange replaces it wholesale.
func (m *membership) insertSeed(addr string, now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.peers[addr]; !ok {
		m.peers[addr] = &peer{info: PeerInfo{Addr: addr}, lastSeen: now}
	}
}

// merge folds received entries into the table and reports the
// membership transitions (joins and incarnation bumps) in wire order.
// Self entries are ignored (this node is authoritative for itself);
// stale entries (older epoch, or equal epoch without a heartbeat
// advance) leave the row untouched so suspicion keeps accruing, and an
// evicted peer is readmitted only by an entry strictly fresher than its
// tombstone.
func (m *membership) merge(infos []PeerInfo, now time.Time) (changes []memberChange) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, in := range infos {
		if in.Addr == "" || in.Addr == m.self {
			continue
		}
		p, ok := m.peers[in.Addr]
		if !ok {
			if t, dead := m.gone[in.Addr]; dead && !fresher(in, t.info) {
				continue
			}
			delete(m.gone, in.Addr)
			m.peers[in.Addr] = &peer{info: in, lastSeen: now}
			changes = append(changes, classify(in.Addr, 0, in.Epoch))
			continue
		}
		if fresher(in, p.info) {
			if in.Epoch > p.info.Epoch {
				changes = append(changes, classify(in.Addr, p.info.Epoch, in.Epoch))
			}
			p.info = in
			p.lastSeen = now
			p.state = peerAlive
		}
	}
	return changes
}

// age classifies every row against the liveness deadlines: rows without
// a fresh heartbeat for suspectAfter turn suspect, rows beyond
// evictAfter are removed and leave a tombstone, and tombstones older
// than 2×evictAfter are pruned (by then every survivor has evicted the
// row too). It returns the addresses that transitioned, for logging and
// the eviction counter.
func (m *membership) age(now time.Time, suspectAfter, evictAfter time.Duration) (suspected, evicted []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for addr, t := range m.gone {
		if now.Sub(t.evictedAt) > 2*evictAfter {
			delete(m.gone, addr)
		}
	}
	for addr, p := range m.peers {
		idle := now.Sub(p.lastSeen)
		switch {
		case idle > evictAfter:
			delete(m.peers, addr)
			m.gone[addr] = tombstone{info: p.info, evictedAt: now}
			evicted = append(evicted, addr)
		case idle > suspectAfter && p.state == peerAlive:
			p.state = peerSuspect
			suspected = append(suspected, addr)
		}
	}
	sort.Strings(suspected)
	sort.Strings(evicted)
	return suspected, evicted
}

// pickTargets selects up to fanout distinct shuffle partners from the
// injected source, preferring alive peers and falling back to suspects
// (a suspect that answers a shuffle immediately clears its suspicion).
func (m *membership) pickTargets(r *rand.Rand, fanout int) []string {
	m.mu.Lock()
	alive := make([]string, 0, len(m.peers))
	suspect := make([]string, 0)
	for addr, p := range m.peers {
		if p.state == peerAlive {
			alive = append(alive, addr)
		} else {
			suspect = append(suspect, addr)
		}
	}
	m.mu.Unlock()
	sort.Strings(alive)
	sort.Strings(suspect)

	pool := alive
	if len(pool) == 0 {
		pool = suspect
	}
	if len(pool) <= fanout {
		return pool
	}
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:fanout]
}

// digest renders the view for one gossip message: self plus up to max-1
// peer entries, freshest first so a bounded view still propagates the
// most recent liveness, re-sorted by address for a canonical wire order.
func (m *membership) digest(self PeerInfo, max int) []PeerInfo {
	// Copy rows by value under the lock: the gossip loop mutates peer
	// structs concurrently, so no *peer may escape the critical section.
	m.mu.Lock()
	rows := make([]peer, 0, len(m.peers))
	for _, p := range m.peers {
		rows = append(rows, *p)
	}
	m.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool {
		if !rows[i].lastSeen.Equal(rows[j].lastSeen) {
			return rows[i].lastSeen.After(rows[j].lastSeen)
		}
		return rows[i].info.Addr < rows[j].info.Addr
	})
	if max > 0 && len(rows) > max-1 {
		rows = rows[:max-1]
	}
	out := make([]PeerInfo, 0, len(rows)+1)
	out = append(out, self)
	for _, p := range rows {
		out = append(out, p.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// members returns every current member address (self included),
// ascending: the rendezvous ring's input. Suspect peers stay members so
// the keyspace does not flap while a peer is merely slow.
func (m *membership) members() []string {
	m.mu.Lock()
	out := make([]string, 0, len(m.peers)+1)
	out = append(out, m.self)
	for addr := range m.peers {
		out = append(out, addr)
	}
	m.mu.Unlock()
	sort.Strings(out)
	return out
}

// isSuspect reports whether addr is currently suspect (unknown
// addresses are not members and report false).
func (m *membership) isSuspect(addr string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[addr]
	return ok && p.state == peerSuspect
}

// size is the membership count including self.
func (m *membership) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.peers) + 1
}

// touch refreshes a peer's liveness from direct contact (an inbound
// gossip message or a successful exchange), inserting it if unknown —
// a tombstone included: a peer that talks to us is alive — and reports
// the resulting transitions like merge does.
func (m *membership) touch(in PeerInfo, now time.Time) (changes []memberChange) {
	if in.Addr == "" || in.Addr == m.self {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[in.Addr]
	if !ok {
		delete(m.gone, in.Addr)
		m.peers[in.Addr] = &peer{info: in, lastSeen: now}
		return []memberChange{classify(in.Addr, 0, in.Epoch)}
	}
	if in.Epoch > p.info.Epoch ||
		(in.Epoch == p.info.Epoch && in.Heartbeat >= p.info.Heartbeat) {
		if in.Epoch > p.info.Epoch {
			changes = append(changes, classify(in.Addr, p.info.Epoch, in.Epoch))
		}
		p.info = in
		p.lastSeen = now
		p.state = peerAlive
	}
	return changes
}

// statuses renders the table (self excluded) sorted by address, for the
// fleet endpoint's per-peer health view.
func (m *membership) statuses() []PeerStatus {
	m.mu.Lock()
	out := make([]PeerStatus, 0, len(m.peers))
	for _, p := range m.peers {
		state := "alive"
		if p.state == peerSuspect {
			state = "suspect"
		}
		out = append(out, PeerStatus{
			Addr:      p.info.Addr,
			State:     state,
			Epoch:     p.info.Epoch,
			Heartbeat: p.info.Heartbeat,
			LastSeen:  p.lastSeen,
		})
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}
