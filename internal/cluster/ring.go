// Package cluster is the sharding layer of `bandsim serve`'s cluster mode:
// a consistent-hash ring that places run-store keys across peer nodes, and
// a forwarding client that ships cache misses and sweep cells to the owning
// peer over HTTP — with per-attempt deadlines, deterministic-jitter retries,
// and a per-peer circuit breaker, so a dead, slow, or partitioned peer
// degrades the caller to local compute instead of failing the request.
//
// Key placement is itself a balls-into-bins problem: each node contributes
// `replicas` virtual points, so with n nodes and R replicas each the arc a
// node owns concentrates around 1/n of the hash space (the classic
// consistent-hashing load bound — max load (1+ε)·K/n for K keys, with ε
// shrinking in R; see "Tight Bounds for Parallel Randomized Load Balancing"
// for the style of bound the chaos suite asserts). Ownership is a pure
// function of (membership, key), so every node that agrees on membership
// agrees on placement without coordination.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// DefaultReplicas is the number of virtual points each node contributes to
// a Client's ring.
const DefaultReplicas = 128

// hash64 maps a string to a point on the ring: the first 8 bytes of its
// SHA-256, which keeps placement byte-identical across platforms (the same
// reason workgen derives sub-streams from SHA-256).
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

type ringPoint struct {
	hash  uint64
	owner string
}

// Ring is a consistent-hash ring over named nodes. Safe for concurrent use;
// Owner is a read-lock binary search.
type Ring struct {
	replicas int

	mu      sync.RWMutex
	points  []ringPoint
	members map[string]bool
}

// NewRing builds a ring with the given virtual-point count per node
// (<= 0 selects DefaultReplicas) and initial members.
func NewRing(replicas int, members ...string) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{replicas: replicas, members: map[string]bool{}}
	for _, m := range members {
		r.members[m] = true
	}
	r.rebuild()
	return r
}

// rebuild recomputes the sorted point list. Caller holds no lock (NewRing)
// or the write lock (Add/Remove callers take it).
func (r *Ring) rebuild() {
	points := make([]ringPoint, 0, len(r.members)*r.replicas)
	for m := range r.members {
		for i := 0; i < r.replicas; i++ {
			points = append(points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", m, i)), owner: m})
		}
	}
	// Sort by (hash, owner) so a hash collision between two nodes' virtual
	// points resolves deterministically on every node.
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].owner < points[j].owner
	})
	r.points = points
}

// Add inserts a node; adding an existing member is a no-op.
func (r *Ring) Add(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[name] {
		return
	}
	r.members[name] = true
	r.rebuild()
}

// Remove deletes a node; only keys it owned move (to their next clockwise
// point), which is what makes membership changes cheap.
func (r *Ring) Remove(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[name] {
		return
	}
	delete(r.members, name)
	r.rebuild()
}

// Owner returns the node owning key: the first virtual point clockwise from
// the key's hash. An empty ring owns nothing and returns "".
func (r *Ring) Owner(key string) string {
	h := hash64(key)
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the top of the hash space
	}
	return r.points[i].owner
}

// Members returns the node names, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}
