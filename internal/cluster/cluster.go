package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"parbw/internal/retry"
)

// ForwardPath is the peer-to-peer endpoint the service registers and the
// client posts to: the owner runs (or cache-serves) one task and answers
// with the canonical result bytes.
const ForwardPath = "/v1/cluster/run"

// EventPath is the origin-facing endpoint an owner posts progress events of
// a forwarded task back to. The channel is strictly best-effort: batches are
// dropped on overflow or peer failure, never retried, never load-bearing —
// terminal task state always travels in the forward response itself.
const EventPath = "/v1/cluster/events"

// Response headers of the forward endpoint. The CRC header makes torn
// forwards detectable: the client refuses any body whose checksum does not
// match, the same integrity discipline the run store applies on disk.
const (
	HeaderCRC      = "X-Parbw-Crc32"
	HeaderCached   = "X-Parbw-Cached"
	HeaderDegraded = "X-Parbw-Degraded"
)

// ForwardRequest is one task shipped to its owning peer: the resolved
// canonical parameter assignment plus the run-store key the caller derived
// from it. The owner re-derives the key and refuses a mismatch, so version
// skew between nodes cannot poison a store.
type ForwardRequest struct {
	Experiment string            `json:"experiment"`
	Seed       uint64            `json:"seed"`
	Params     map[string]string `json:"params"`
	Key        string            `json:"key"`

	// Event back-channel (optional). When WantEvents is set the owner posts
	// progress events for this task to the origin node's EventPath, tagged
	// with the origin's job id and task index. Origin is the caller's ring
	// name — the owner resolves it against its own peer list, so a request
	// cannot redirect events to an arbitrary URL.
	Origin     string `json:"origin,omitempty"`
	Job        string `json:"job,omitempty"`
	TaskIndex  int    `json:"task,omitempty"`
	WantEvents bool   `json:"want_events,omitempty"`
}

// EventBatch is one best-effort batch of owner-side progress events for a
// job on the origin node. Events travel as raw JSON: the cluster layer stays
// agnostic of the service's event schema.
type EventBatch struct {
	Job    string            `json:"job"`
	Events []json.RawMessage `json:"events"`
}

// ForwardResult is a successful forward: the canonical result bytes, plus
// whether the owner served them from its cache and whether the owner itself
// degraded (computed but could not persist).
type ForwardResult struct {
	Data           []byte
	RemoteCached   bool
	RemoteDegraded bool
}

// PeerStats are one peer's lifetime forwarding counters, exported on
// /v1/statsz and /v1/cluster/ring.
type PeerStats struct {
	State        string `json:"state"`             // breaker: closed | open | half-open | disabled
	Forwards     uint64 `json:"forwards"`          // successful forwards
	Retries      uint64 `json:"forward_retries"`   // extra attempts after a failure
	Failures     uint64 `json:"forward_failures"`  // attempts that errored (down/slow/torn/partition)
	RemoteHits   uint64 `json:"remote_hits"`       // forwards served from the peer's cache
	Degraded     uint64 `json:"degraded_to_local"` // forwards abandoned; caller computed locally
	BreakerOpens uint64 `json:"breaker_opens"`
	// Event back-channel counters (this node as the posting owner).
	EventsPosted  uint64 `json:"events_posted"`  // progress events delivered to the origin
	EventsDropped uint64 `json:"events_dropped"` // progress events abandoned (overflow or post failure)
}

// Stats is the cluster-health snapshot: ring membership plus per-peer
// counters.
type Stats struct {
	Self    string               `json:"self"`
	Members []string             `json:"members"`
	Peers   map[string]PeerStats `json:"peers"`
}

// Options configures a Client. Zero values select the documented defaults.
type Options struct {
	// Self is this node's name in the ring (required).
	Self string
	// Peers maps every OTHER ring member's name to its base URL (scheme +
	// host, no trailing slash). An entry for Self is tolerated and ignored,
	// so all nodes can share one membership list verbatim.
	Peers map[string]string

	// Transport is the HTTP transport for peer calls; chaos tests wrap it
	// with fault.InjectTransport. Nil → http.DefaultTransport.
	Transport http.RoundTripper
	// PeerTransports overrides Transport per peer name, letting a chaos
	// plan target one peer (partition it, slow it) while others stay clean.
	PeerTransports map[string]http.RoundTripper

	// AttemptTimeout is the per-attempt forward deadline; <= 0 → 2s.
	AttemptTimeout time.Duration
	// Retries and Backoff pace forward attempts; they are retry.Policy's
	// fields, with its defaults (2 retries, 50ms first pause).
	Retries int
	Backoff time.Duration

	// Per-peer circuit breaker: BreakerThreshold consecutive forward
	// failures open a peer's breaker for BreakerCooldown, during which
	// forwards to that peer are refused immediately (the caller degrades to
	// local compute). After the cooldown one probe is allowed — success
	// re-routes traffic back, which is how the ring heals. 0 → 3; < 0
	// disables. Cooldown 0 → 5s.
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

type peerState struct {
	breaker *retry.Breaker
	stats   PeerStats
}

// Client is one node's view of the cluster: the ring plus a forwarding
// client per peer. Safe for concurrent use.
type Client struct {
	self           string
	ring           *Ring
	urls           map[string]string
	clients        map[string]*http.Client
	attemptTimeout time.Duration
	policy         retry.Policy

	mu    sync.Mutex
	peers map[string]*peerState
}

// New builds a cluster client. The ring is Self plus every name in Peers.
func New(opts Options) (*Client, error) {
	if opts.Self == "" {
		return nil, errors.New("cluster: Options.Self is required")
	}
	if opts.AttemptTimeout <= 0 {
		opts.AttemptTimeout = 2 * time.Second
	}
	members := []string{opts.Self}
	urls := map[string]string{}
	clients := map[string]*http.Client{}
	peers := map[string]*peerState{}
	names := make([]string, 0, len(opts.Peers))
	for name := range opts.Peers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if name == opts.Self {
			continue // shared membership lists may include this node
		}
		url := opts.Peers[name]
		if url == "" {
			return nil, fmt.Errorf("cluster: peer %q has no url", name)
		}
		members = append(members, name)
		urls[name] = url
		tr := opts.Transport
		if pt, ok := opts.PeerTransports[name]; ok {
			tr = pt
		}
		if tr == nil {
			tr = http.DefaultTransport
		}
		clients[name] = &http.Client{Transport: tr}
		peers[name] = &peerState{breaker: retry.NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown)}
	}
	return &Client{
		self:           opts.Self,
		ring:           NewRing(DefaultReplicas, members...),
		urls:           urls,
		clients:        clients,
		attemptTimeout: opts.AttemptTimeout,
		policy:         retry.Policy{Retries: opts.Retries, Backoff: opts.Backoff},
		peers:          peers,
	}, nil
}

// Self returns this node's ring name.
func (c *Client) Self() string { return c.self }

// Owner returns the ring owner of a run-store key.
func (c *Client) Owner(key string) string { return c.ring.Owner(key) }

// Members returns the ring membership, sorted.
func (c *Client) Members() []string { return c.ring.Members() }

// count mutates one peer's counters under the lock.
func (c *Client) count(peer string, fn func(*PeerStats)) {
	c.mu.Lock()
	if ps, ok := c.peers[peer]; ok {
		fn(&ps.stats)
	}
	c.mu.Unlock()
}

// Forward ships one task to its owning peer and returns the verified result
// bytes. Attempts carry a per-attempt deadline (derived from ctx) and are
// paced by deterministic-jitter backoff; a peer whose breaker is open is
// refused immediately, and a failure that opens it ends the loop without
// another pause. A retry is counted only once the breaker lets its attempt
// through. Any non-nil error means the caller should degrade to
// local compute — Forward never partially succeeds.
func (c *Client) Forward(ctx context.Context, owner string, req ForwardRequest) (*ForwardResult, error) {
	base, ok := c.urls[owner]
	if !ok {
		return nil, fmt.Errorf("cluster: no url for peer %q", owner)
	}
	c.mu.Lock()
	ps := c.peers[owner]
	c.mu.Unlock()

	var res *ForwardResult
	err := c.policy.Do(ctx, req.Key, func(n int) error {
		if !ps.breaker.Allow(time.Now()) {
			return retry.Stop(fmt.Errorf("cluster: peer %s breaker open", owner))
		}
		if n > 1 {
			c.count(owner, func(st *PeerStats) { st.Retries++ })
		}
		var err error
		if res, err = c.attempt(ctx, owner, base, req); err != nil {
			now := time.Now()
			ps.breaker.Failure(now)
			c.count(owner, func(st *PeerStats) { st.Failures++ })
			if ps.breaker.Open(now) {
				// No pause or retry for an attempt the breaker would refuse.
				return retry.Stop(err)
			}
			return err
		}
		ps.breaker.Success()
		c.count(owner, func(st *PeerStats) {
			st.Forwards++
			if res.RemoteCached {
				st.RemoteHits++
			}
		})
		return nil
	})
	if err == nil {
		return res, nil
	}
	if err != ctx.Err() { // a cancelled caller abandons the task; it does not degrade
		c.count(owner, func(st *PeerStats) { st.Degraded++ })
	}
	return nil, err
}

// attempt is one HTTP round trip to the owner, with its own deadline so a
// hung peer cannot absorb the whole job timeout; cancelling ctx cancels the
// in-flight request (and, through net/http, the peer's request context).
func (c *Client) attempt(ctx context.Context, owner, base string, req ForwardRequest) (*ForwardResult, error) {
	actx, cancel := context.WithTimeout(ctx, c.attemptTimeout)
	defer cancel()
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: encode forward: %w", err)
	}
	hreq, err := http.NewRequestWithContext(actx, http.MethodPost, base+ForwardPath, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("cluster: build forward: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.clients[owner].Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("cluster: read forward response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		msg := string(data)
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return nil, fmt.Errorf("cluster: peer %s answered %d: %s", owner, resp.StatusCode, msg)
	}
	crc := resp.Header.Get(HeaderCRC)
	if crc == "" {
		return nil, fmt.Errorf("cluster: peer %s response missing %s", owner, HeaderCRC)
	}
	if got := fmt.Sprintf("%08x", crc32.ChecksumIEEE(data)); got != crc {
		return nil, fmt.Errorf("cluster: torn forward from %s: crc %s != %s", owner, got, crc)
	}
	return &ForwardResult{
		Data:           data,
		RemoteCached:   resp.Header.Get(HeaderCached) == "1",
		RemoteDegraded: resp.Header.Get(HeaderDegraded) == "1",
	}, nil
}

// PostEvents ships one progress-event batch to peer's EventPath. Strictly
// best-effort: a single attempt under the per-attempt deadline, and any
// failure counts the whole batch as dropped — the caller is expected to log
// nothing and move on, because terminal task state never travels this way.
func (c *Client) PostEvents(ctx context.Context, peer string, batch EventBatch) error {
	base, ok := c.urls[peer]
	if !ok {
		return fmt.Errorf("cluster: no url for peer %q", peer)
	}
	dropped := func() {
		c.count(peer, func(st *PeerStats) { st.EventsDropped += uint64(len(batch.Events)) })
	}
	body, err := json.Marshal(batch)
	if err != nil {
		dropped()
		return fmt.Errorf("cluster: encode events: %w", err)
	}
	actx, cancel := context.WithTimeout(ctx, c.attemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, base+EventPath, bytes.NewReader(body))
	if err != nil {
		dropped()
		return fmt.Errorf("cluster: build event post: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.clients[peer].Do(req)
	if err != nil {
		dropped()
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		dropped()
		return fmt.Errorf("cluster: peer %s answered %d to event post", peer, resp.StatusCode)
	}
	c.count(peer, func(st *PeerStats) { st.EventsPosted += uint64(len(batch.Events)) })
	return nil
}

// NoteEventsDropped counts progress events abandoned before ever reaching
// PostEvents (owner-side sender queue overflow).
func (c *Client) NoteEventsDropped(peer string, n int) {
	c.count(peer, func(st *PeerStats) { st.EventsDropped += uint64(n) })
}

// Snapshot returns the current cluster-health view.
func (c *Client) Snapshot() Stats {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := Stats{Self: c.self, Members: c.ring.Members(), Peers: make(map[string]PeerStats, len(c.peers))}
	for name, ps := range c.peers {
		st := ps.stats
		st.State = ps.breaker.State(now)
		st.BreakerOpens = ps.breaker.Opens()
		out.Peers[name] = st
	}
	return out
}

// PeerHealth probes every peer's liveness endpoint concurrently (1s cap per
// probe) and reports "ok" or a short failure reason. Peer reachability is
// advisory: an unreachable peer does NOT make this node unready, because
// forwards to it degrade to local compute.
func (c *Client) PeerHealth(ctx context.Context) map[string]string {
	type probe struct{ name, status string }
	ch := make(chan probe, len(c.urls))
	for name, base := range c.urls {
		go func(name, base string) {
			pctx, cancel := context.WithTimeout(ctx, time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, base+"/v1/healthz", nil)
			if err != nil {
				ch <- probe{name, "unreachable"}
				return
			}
			resp, err := c.clients[name].Do(req)
			if err != nil {
				ch <- probe{name, "unreachable"}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				ch <- probe{name, "ok"}
			} else {
				ch <- probe{name, fmt.Sprintf("status %d", resp.StatusCode)}
			}
		}(name, base)
	}
	out := make(map[string]string, len(c.urls))
	for range c.urls {
		p := <-ch
		out[p.name] = p.status
	}
	return out
}
