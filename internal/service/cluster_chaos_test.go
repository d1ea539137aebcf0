package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"parbw/internal/cluster"
	"parbw/internal/fault"
	"parbw/internal/harness"
)

// The cluster chaos suite: a 3-node in-process cluster is driven through
// seeded peer-failure plans — node down, slow peer, partitioned store, torn
// forwards, breaker trips — and must degrade to local compute instead of
// failing: every admitted sweep completes (possibly degraded, never failed),
// the results are byte-identical to a single-node run of the same seeds, and
// a post-chaos scrub of every node's store finds nothing torn. Fault
// decisions are pure in (chaosSeed, point, hit), so any failure here replays
// bit-identically.

// delegatingHandler breaks the construction cycle of an in-process cluster:
// every node needs its peers' URLs before its own Server exists, so the
// httptest listeners come up first around a handler swapped in later.
type delegatingHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (d *delegatingHandler) set(h http.Handler) {
	d.mu.Lock()
	d.h = h
	d.mu.Unlock()
}

func (d *delegatingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	h := d.h
	d.mu.Unlock()
	if h == nil {
		http.Error(w, "node not up yet", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

type clusterNode struct {
	name   string
	srv    *Server
	client *cluster.Client
}

// peerPoint names the injection point for one direction of traffic to one
// peer, e.g. "cluster.peer.node-1.send".
func peerPoint(peer, dir string) string {
	return "cluster.peer." + peer + "." + dir
}

// newTestCluster boots n in-process nodes that all share one membership
// list. mut tweaks each node's service and cluster options before
// construction — chaos tests use it to wrap per-peer transports in
// fault.InjectTransport.
func newTestCluster(t *testing.T, n int, mut func(node int, so *Options, co *cluster.Options)) []*clusterNode {
	t.Helper()
	delegates := make([]*delegatingHandler, n)
	urls := map[string]string{}
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = nodeName(i)
		delegates[i] = &delegatingHandler{}
		ts := httptest.NewServer(delegates[i])
		t.Cleanup(ts.Close)
		urls[names[i]] = ts.URL
	}
	nodes := make([]*clusterNode, n)
	for i := 0; i < n; i++ {
		peers := make(map[string]string, n)
		for name, url := range urls {
			peers[name] = url // cluster.New ignores the self entry
		}
		co := cluster.Options{
			Self:    names[i],
			Peers:   peers,
			Retries: -1, // chaos tests opt into retries explicitly
			Backoff: time.Millisecond,
		}
		so := Options{Workers: 2, Backoff: time.Millisecond}
		if mut != nil {
			mut(i, &so, &co)
		}
		cl, err := cluster.New(co)
		if err != nil {
			t.Fatal(err)
		}
		so.Cluster = cl
		srv := newTestServer(t, so)
		delegates[i].set(srv.Handler())
		nodes[i] = &clusterNode{name: names[i], srv: srv, client: cl}
	}
	return nodes
}

func nodeName(i int) string {
	return "node-" + string(rune('0'+i))
}

// chaosSweep is the fixed workload every cluster chaos test runs: three
// experiments × two seeds, quick presets — six deterministic tasks whose
// keys spread across the ring.
func chaosSweep() RunRequest {
	return RunRequest{
		Experiments: []string{"table1/broadcast", "table1/parity", "sched/static"},
		Seeds:       []uint64{1, 2},
		Quick:       true,
	}
}

// runSweep submits req on node, requires it to finish done with every task
// done, and returns result bytes by key.
func runSweep(t *testing.T, s *Server, req RunRequest) map[string]string {
	t.Helper()
	job, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if state := waitState(t, job); state != StatusDone {
		t.Fatalf("sweep state %q, want done: %+v", state, job.View().Tasks)
	}
	out := map[string]string{}
	for _, tv := range job.View().Tasks {
		if tv.Status != StatusDone {
			t.Fatalf("task %s/%d status %q, want done (err %q)", tv.Experiment, tv.Seed, tv.Status, tv.Error)
		}
		if len(tv.Result) == 0 {
			t.Fatalf("task %s/%d finished without result bytes", tv.Experiment, tv.Seed)
		}
		out[tv.Key] = string(tv.Result)
	}
	return out
}

// singleNodeBaseline runs req on a fresh non-clustered server: the
// byte-identity oracle for every cluster run.
func singleNodeBaseline(t *testing.T, req RunRequest) map[string]string {
	t.Helper()
	return runSweep(t, newTestServer(t, Options{Workers: 2}), req)
}

func assertSameResults(t *testing.T, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result sets differ in size: %d vs %d keys", len(got), len(want))
	}
	for key, data := range want {
		if got[key] != data {
			t.Fatalf("key %s: cluster result bytes differ from single-node run", key[:8])
		}
	}
}

func assertAllStoresClean(t *testing.T, nodes []*clusterNode) {
	t.Helper()
	for _, n := range nodes {
		rep, err := n.srv.Store().Scrub()
		if err != nil {
			t.Fatalf("%s: final scrub: %v", n.name, err)
		}
		if rep.Quarantined != 0 || rep.TmpSwept != 0 {
			t.Fatalf("%s: store not clean after chaos: %+v", n.name, rep)
		}
	}
}

// seedOwnedBy finds a seed whose table1/broadcast quick-run key lands on the
// given ring member, so tests can aim tasks at a specific peer without
// hard-coding hashes that would rot when the code version changes.
func seedOwnedBy(t *testing.T, cl *cluster.Client, owner string, after uint64) uint64 {
	t.Helper()
	e, ok := harness.ByID("table1/broadcast")
	if !ok {
		t.Fatal("table1/broadcast not registered")
	}
	vals, err := e.Resolve(map[string]string{"quick": "true"})
	if err != nil {
		t.Fatal(err)
	}
	canon := vals.Canonical()
	for seed := after + 1; seed < after+1000; seed++ {
		if cl.Owner(taskKey("table1/broadcast", seed, canon)) == owner {
			return seed
		}
	}
	t.Fatalf("no seed in (%d, %d] owned by %s", after, after+1000, owner)
	return 0
}

// Healthy cluster: cache misses on peer-owned keys are forwarded, the
// owner's store holds the bytes, and the merged results are byte-identical
// to a single-node run of the same sweep. Placement is verified against the
// ring on every node (all nodes agree without coordination).
func TestClusterChaosForwardingMatchesSingleNode(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	req := chaosSweep()
	got := runSweep(t, nodes[0].srv, req)
	assertSameResults(t, got, singleNodeBaseline(t, req))

	// Counting discipline: the origin counted exactly the peer-owned keys as
	// forwards; local keys ran locally.
	wantForwards := 0
	for key := range got {
		owner := nodes[0].client.Owner(key)
		for _, n := range nodes[1:] {
			if n.client.Owner(key) != owner {
				t.Fatalf("ring disagreement on %s: %s vs %s", key[:8], owner, n.client.Owner(key))
			}
		}
		if owner != nodes[0].name {
			wantForwards++
			// The owner's store is now authoritative for the key.
			idx := int(owner[len(owner)-1] - '0')
			if _, ok, err := nodes[idx].srv.Store().GetBytes(key); err != nil || !ok {
				t.Fatalf("owner %s does not hold forwarded key %s (ok=%v err=%v)", owner, key[:8], ok, err)
			}
		}
	}
	st := nodes[0].srv.Stats()
	if st.TasksForwarded != uint64(wantForwards) || st.ForwardDegraded != 0 {
		t.Fatalf("origin stats = %+v, want %d forwards and 0 degrades", st, wantForwards)
	}
	if wantForwards == 0 {
		t.Fatal("every key landed on the origin node; forwarding untested (ring imbalance?)")
	}
	// A re-run of the same sweep is served from caches: local hits locally,
	// peer-owned keys as remote hits.
	rerun := runSweep(t, nodes[0].srv, req)
	assertSameResults(t, rerun, got)
	snap := nodes[0].client.Snapshot()
	remoteHits := uint64(0)
	for _, ps := range snap.Peers {
		remoteHits += ps.RemoteHits
	}
	if remoteHits != uint64(wantForwards) {
		t.Fatalf("remote cache hits = %d, want %d", remoteHits, wantForwards)
	}
	assertAllStoresClean(t, nodes)
}

// Both peers down (connections refused at the transport): every forward
// fails fast, every peer-owned task degrades to local compute, nothing
// fails, and the bytes still match the single-node oracle.
func TestClusterChaosNodeDownDegradesToLocal(t *testing.T) {
	plan := fault.NewPlan(chaosSeed,
		fault.Rule{Point: peerPoint("node-1", fault.RTSend), Kind: fault.Error},
		fault.Rule{Point: peerPoint("node-2", fault.RTSend), Kind: fault.Error},
	)
	nodes := newTestCluster(t, 3, func(i int, so *Options, co *cluster.Options) {
		if i == 0 {
			co.PeerTransports = map[string]http.RoundTripper{
				"node-1": fault.InjectTransport(nil, plan, peerPoint("node-1", "")),
				"node-2": fault.InjectTransport(nil, plan, peerPoint("node-2", "")),
			}
			co.BreakerThreshold = -1 // isolate the degrade path from the breaker
		}
	})
	req := chaosSweep()
	got := runSweep(t, nodes[0].srv, req)
	assertSameResults(t, got, singleNodeBaseline(t, req))

	degraded := 0
	for key := range got {
		if nodes[0].client.Owner(key) != nodes[0].name {
			degraded++
			// Degrade-to-local stores locally, so the origin can serve the
			// key next time without the dead peer.
			if _, ok, err := nodes[0].srv.Store().GetBytes(key); err != nil || !ok {
				t.Fatalf("degraded key %s not in origin store (ok=%v err=%v)", key[:8], ok, err)
			}
		}
	}
	if degraded == 0 {
		t.Fatal("every key landed on the origin node; degrade path untested")
	}
	st := nodes[0].srv.Stats()
	if st.ForwardDegraded != uint64(degraded) || st.TasksForwarded != 0 {
		t.Fatalf("stats = %+v, want %d forward degrades and 0 forwards", st, degraded)
	}
	// The degraded tasks are marked, never failed.
	views := nodes[0].srv.Jobs()
	for _, tv := range views[len(views)-1].Tasks {
		owned := nodes[0].client.Owner(tv.Key) == nodes[0].name
		if !owned && !tv.Degraded {
			t.Fatalf("peer-owned task %s/%d completed undegraded with both peers down", tv.Experiment, tv.Seed)
		}
		if tv.Forwarded {
			t.Fatalf("task %s/%d claims a forward while peers are down", tv.Experiment, tv.Seed)
		}
	}
	assertAllStoresClean(t, nodes)
}

// A peer that accepts connections but stalls for a minute: the per-attempt
// deadline bounds each forward, the sweep finishes promptly (degraded), and
// the stalled node's own serving is untouched.
func TestClusterChaosSlowPeerBoundedByAttemptDeadline(t *testing.T) {
	plan := fault.NewPlan(chaosSeed,
		fault.Rule{Point: peerPoint("node-1", fault.RTSend), Kind: fault.Slow, Delay: time.Minute},
		fault.Rule{Point: peerPoint("node-2", fault.RTSend), Kind: fault.Slow, Delay: time.Minute},
	)
	nodes := newTestCluster(t, 3, func(i int, so *Options, co *cluster.Options) {
		if i == 0 {
			co.PeerTransports = map[string]http.RoundTripper{
				"node-1": fault.InjectTransport(nil, plan, peerPoint("node-1", "")),
				"node-2": fault.InjectTransport(nil, plan, peerPoint("node-2", "")),
			}
			co.AttemptTimeout = 50 * time.Millisecond
			co.BreakerThreshold = -1
		}
	})
	req := chaosSweep()
	start := time.Now()
	got := runSweep(t, nodes[0].srv, req)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("sweep took %v; the attempt deadline did not cut the stalled forwards short", elapsed)
	}
	assertSameResults(t, got, singleNodeBaseline(t, req))
	if st := nodes[0].srv.Stats(); st.ForwardDegraded == 0 {
		t.Fatalf("stats = %+v, want stalled forwards degraded to local", st)
	}
	assertAllStoresClean(t, nodes)
}

// Partition after the work: the peer runs the task and stores the result,
// but the response is lost on the way back. The origin degrades to local
// compute — and because the experiments are deterministic, both nodes' stores
// now hold byte-identical entries under the same key.
func TestClusterChaosPartitionAfterWorkStaysConsistent(t *testing.T) {
	plan := fault.NewPlan(chaosSeed,
		fault.Rule{Point: peerPoint("node-1", fault.RTRecv), Kind: fault.Error},
		fault.Rule{Point: peerPoint("node-2", fault.RTRecv), Kind: fault.Error},
	)
	nodes := newTestCluster(t, 3, func(i int, so *Options, co *cluster.Options) {
		if i == 0 {
			co.PeerTransports = map[string]http.RoundTripper{
				"node-1": fault.InjectTransport(nil, plan, peerPoint("node-1", "")),
				"node-2": fault.InjectTransport(nil, plan, peerPoint("node-2", "")),
			}
			co.BreakerThreshold = -1
		}
	})
	req := chaosSweep()
	got := runSweep(t, nodes[0].srv, req)
	assertSameResults(t, got, singleNodeBaseline(t, req))

	checked := 0
	for key := range got {
		owner := nodes[0].client.Owner(key)
		if owner == nodes[0].name {
			continue
		}
		checked++
		idx := int(owner[len(owner)-1] - '0')
		remote, ok, err := nodes[idx].srv.Store().GetBytes(key)
		if err != nil || !ok {
			t.Fatalf("partitioned owner %s never stored %s (ok=%v err=%v): response was lost, work must not be", owner, key[:8], ok, err)
		}
		local, ok, err := nodes[0].srv.Store().GetBytes(key)
		if err != nil || !ok {
			t.Fatalf("origin missing degraded key %s (ok=%v err=%v)", key[:8], ok, err)
		}
		if string(remote) != string(local) {
			t.Fatalf("key %s: partitioned replicas diverge", key[:8])
		}
	}
	if checked == 0 {
		t.Fatal("every key landed on the origin node; partition path untested")
	}
	assertAllStoresClean(t, nodes)
}

// Torn forward: the response body arrives truncated. The CRC check catches
// it, a retry fetches clean bytes, and the task still reports a successful
// forward — integrity failures are retried like any other peer failure.
func TestClusterChaosTornForwardCaughtByCRCAndRetried(t *testing.T) {
	plan := fault.NewPlan(chaosSeed,
		fault.Rule{Point: peerPoint("node-1", fault.RTRecv), Kind: fault.PartialWrite, Count: 1},
		fault.Rule{Point: peerPoint("node-2", fault.RTRecv), Kind: fault.PartialWrite, Count: 1},
	)
	nodes := newTestCluster(t, 3, func(i int, so *Options, co *cluster.Options) {
		if i == 0 {
			co.PeerTransports = map[string]http.RoundTripper{
				"node-1": fault.InjectTransport(nil, plan, peerPoint("node-1", "")),
				"node-2": fault.InjectTransport(nil, plan, peerPoint("node-2", "")),
			}
			co.Retries = 2
		}
	})
	req := chaosSweep()
	got := runSweep(t, nodes[0].srv, req)
	assertSameResults(t, got, singleNodeBaseline(t, req))

	st := nodes[0].srv.Stats()
	if st.ForwardDegraded != 0 {
		t.Fatalf("stats = %+v: torn forwards must be retried, not degraded", st)
	}
	snap := nodes[0].client.Snapshot()
	retries, failures := uint64(0), uint64(0)
	for _, ps := range snap.Peers {
		retries += ps.Retries
		failures += ps.Failures
	}
	if failures == 0 || retries == 0 {
		t.Fatalf("cluster snapshot %+v: expected torn first attempts and retried forwards", snap.Peers)
	}
	assertAllStoresClean(t, nodes)
}

// Breaker lifecycle across the wire: repeated failures against one peer open
// its breaker (observable on /v1/cluster/ring and /v1/statsz), an open
// breaker short-circuits forwards to local compute, and after the cooldown a
// healthy probe closes it again — the ring heals and traffic re-routes.
func TestClusterChaosBreakerOpensThenRingHeals(t *testing.T) {
	plan := fault.NewPlan(chaosSeed,
		fault.Rule{Point: peerPoint("node-1", fault.RTSend), Kind: fault.Error, Count: 2},
	)
	// Long enough that the breaker cannot slip into half-open between the
	// tripping sweep and the open-breaker assertion below.
	const cooldown = 2 * time.Second
	nodes := newTestCluster(t, 3, func(i int, so *Options, co *cluster.Options) {
		so.Workers = 1 // deterministic forward order
		if i == 0 {
			co.PeerTransports = map[string]http.RoundTripper{
				"node-1": fault.InjectTransport(nil, plan, peerPoint("node-1", "")),
			}
			co.BreakerThreshold = 2
			co.BreakerCooldown = cooldown
		}
	})

	s1 := seedOwnedBy(t, nodes[0].client, "node-1", 0)
	s2 := seedOwnedBy(t, nodes[0].client, "node-1", s1)
	s3 := seedOwnedBy(t, nodes[0].client, "node-1", s2)

	// Two failing forwards trip the threshold; both tasks degrade to local.
	runSweep(t, nodes[0].srv, RunRequest{
		Experiments: []string{"table1/broadcast"}, Seeds: []uint64{s1, s2}, Quick: true,
	})
	snap := nodes[0].client.Snapshot()
	if ps := snap.Peers["node-1"]; ps.State != "open" || ps.BreakerOpens != 1 || ps.Degraded != 2 {
		t.Fatalf("after 2 failures, node-1 stats = %+v, want open breaker", ps)
	}
	if st := nodes[0].srv.Stats(); st.ForwardDegraded != 2 {
		t.Fatalf("stats = %+v, want 2 forward degrades", st)
	}

	// While open: a third task is refused without touching the wire (the
	// fault rule is exhausted, so a wire attempt would have succeeded).
	runSweep(t, nodes[0].srv, RunRequest{
		Experiments: []string{"table1/broadcast"}, Seeds: []uint64{s3}, Quick: true,
	})
	snap = nodes[0].client.Snapshot()
	if ps := snap.Peers["node-1"]; ps.Forwards != 0 || ps.Degraded != 3 {
		t.Fatalf("open-breaker stats = %+v, want refusal without forwards", ps)
	}

	// After the cooldown the probe goes through, the breaker closes, and the
	// same key now forwards: node-1 serves it from the store it never got to
	// populate — so it runs it, and the ring is healed.
	time.Sleep(cooldown + 200*time.Millisecond)
	s4 := seedOwnedBy(t, nodes[0].client, "node-1", s3)
	runSweep(t, nodes[0].srv, RunRequest{
		Experiments: []string{"table1/broadcast"}, Seeds: []uint64{s4}, Quick: true,
	})
	snap = nodes[0].client.Snapshot()
	if ps := snap.Peers["node-1"]; ps.State != "closed" || ps.Forwards != 1 {
		t.Fatalf("post-heal stats = %+v, want closed breaker and 1 forward", ps)
	}
	assertAllStoresClean(t, nodes)
}

// Mixed probabilistic chaos on every peer link, plus the observability
// surface: sweeps keep completing with byte-identical results, and the
// cluster's state is visible on /v1/statsz, /v1/readyz, and
// /v1/cluster/ring.
func TestClusterChaosMixedFaultsAndObservability(t *testing.T) {
	plan := fault.NewPlan(chaosSeed,
		fault.Rule{Point: peerPoint("node-1", fault.RTSend), Kind: fault.Error, Prob: 0.3},
		fault.Rule{Point: peerPoint("node-1", fault.RTRecv), Kind: fault.PartialWrite, Prob: 0.3},
		fault.Rule{Point: peerPoint("node-2", fault.RTSend), Kind: fault.Slow, Prob: 0.3, Delay: time.Minute},
		fault.Rule{Point: peerPoint("node-2", fault.RTRecv), Kind: fault.Error, Prob: 0.3},
	)
	nodes := newTestCluster(t, 3, func(i int, so *Options, co *cluster.Options) {
		if i == 0 {
			co.PeerTransports = map[string]http.RoundTripper{
				"node-1": fault.InjectTransport(nil, plan, peerPoint("node-1", "")),
				"node-2": fault.InjectTransport(nil, plan, peerPoint("node-2", "")),
			}
			co.AttemptTimeout = 50 * time.Millisecond
			co.Retries = 1
			co.BreakerThreshold = 3
			co.BreakerCooldown = 50 * time.Millisecond
		}
	})
	req := chaosSweep()
	baseline := singleNodeBaseline(t, req)
	for round := 0; round < 3; round++ {
		assertSameResults(t, runSweep(t, nodes[0].srv, req), baseline)
	}

	// Observability: statsz carries the cluster section…
	origin := httptest.NewServer(nodes[0].srv.Handler())
	defer origin.Close()
	var stats struct {
		Cluster *cluster.Stats `json:"cluster"`
	}
	if code := getJSON(t, origin, "/v1/statsz", &stats); code != http.StatusOK {
		t.Fatalf("statsz status %d", code)
	}
	if stats.Cluster == nil || stats.Cluster.Self != "node-0" || len(stats.Cluster.Members) != 3 {
		t.Fatalf("statsz cluster section = %+v", stats.Cluster)
	}
	if len(stats.Cluster.Peers) != 2 {
		t.Fatalf("statsz peers = %+v, want node-1 and node-2", stats.Cluster.Peers)
	}
	// …the ring endpoint serves the same snapshot…
	var ring cluster.Stats
	if code := getJSON(t, origin, "/v1/cluster/ring", &ring); code != http.StatusOK {
		t.Fatalf("cluster/ring status %d", code)
	}
	if len(ring.Members) != 3 || ring.Self != "node-0" {
		t.Fatalf("ring = %+v", ring)
	}
	// …and readyz reports per-peer reachability without failing readiness.
	var ready struct {
		Status string            `json:"status"`
		Peers  map[string]string `json:"peers"`
	}
	if code := getJSON(t, origin, "/v1/readyz", &ready); code != http.StatusOK {
		t.Fatalf("readyz status %d", code)
	}
	if ready.Status != "ready" || len(ready.Peers) != 2 {
		t.Fatalf("readyz = %+v, want ready with 2 peer probes", ready)
	}

	// On a node without cluster mode the peer endpoints answer 404.
	solo := httptest.NewServer(newTestServer(t, Options{}).Handler())
	defer solo.Close()
	resp, err := http.Post(solo.URL+cluster.ForwardPath, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("single-node cluster/run status %d, want 404", resp.StatusCode)
	}
	assertAllStoresClean(t, nodes)
}

// Version-skew guard: an owner whose key derivation disagrees with the
// caller's refuses the forward with 400 instead of storing under a key it
// cannot reproduce.
func TestClusterForwardRefusesKeyMismatch(t *testing.T) {
	nodes := newTestCluster(t, 2, nil)
	ts := httptest.NewServer(nodes[1].srv.Handler())
	defer ts.Close()

	body := `{"experiment":"table1/broadcast","seed":1,"params":{"quick":"true"},` +
		`"key":"00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"}`
	resp, err := http.Post(ts.URL+cluster.ForwardPath, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched key status %d, want 400", resp.StatusCode)
	}
}

// The owner's cache read goes through the same lookup as a local task, so a
// chaos plan reaches it: with every service.store.get on node-1 failing,
// node-1 recomputes the keys it owns on a repeat sweep instead of serving
// them from its store, and nothing degrades or changes bytes.
func TestClusterChaosOwnerFiresStoreGet(t *testing.T) {
	plan := fault.NewPlan(chaosSeed, fault.Rule{Point: PointStoreGet, Kind: fault.Error})
	nodes := newTestCluster(t, 3, func(i int, so *Options, co *cluster.Options) {
		if i == 1 {
			so.Fault = plan
		}
	})
	req := chaosSweep()
	baseline := singleNodeBaseline(t, req)

	owned := 0
	for key := range baseline {
		if nodes[0].client.Owner(key) == "node-1" {
			owned++
		}
	}
	if owned == 0 {
		t.Fatal("no key of the sweep lands on node-1; owner lookup untested")
	}
	for sweep := 1; sweep <= 2; sweep++ {
		assertSameResults(t, runSweep(t, nodes[0].srv, req), baseline)
		views := nodes[0].srv.Jobs()
		for _, tv := range views[len(views)-1].Tasks {
			if tv.Degraded {
				t.Fatalf("sweep %d: task %s/%d degraded", sweep, tv.Experiment, tv.Seed)
			}
		}
		st := nodes[1].srv.Stats()
		if st.TasksRun != uint64(sweep*owned) || st.TasksCached != 0 {
			t.Fatalf("sweep %d: node-1 stats = %+v, want %d runs and no cache hits", sweep, st, sweep*owned)
		}
	}
	if got := plan.Fired(PointStoreGet); got != 2*owned {
		t.Fatalf("node-1 fired %s %d times, want %d", PointStoreGet, got, 2*owned)
	}
	assertAllStoresClean(t, nodes)
}

// The owner retries a forwarded run the way a local task is retried: one
// injected panic on node-1 costs a retry there, and the origin sees a clean
// forward.
func TestClusterChaosOwnerRetriesPanickingRun(t *testing.T) {
	plan := fault.NewPlan(chaosSeed, fault.Rule{Point: PointRunner, Kind: fault.Panic, Count: 1})
	nodes := newTestCluster(t, 3, func(i int, so *Options, co *cluster.Options) {
		if i == 1 {
			so.Fault = plan
		}
	})
	seed := seedOwnedBy(t, nodes[0].client, "node-1", 0)
	req := RunRequest{Experiments: []string{"table1/broadcast"}, Seeds: []uint64{seed}, Quick: true}
	assertSameResults(t, runSweep(t, nodes[0].srv, req), singleNodeBaseline(t, req))

	views := nodes[0].srv.Jobs()
	if tv := views[len(views)-1].Tasks[0]; !tv.Forwarded || tv.Degraded {
		t.Fatalf("task = %+v, want forwarded and not degraded", tv)
	}
	if st := nodes[1].srv.Stats(); st.TaskPanics != 1 || st.TaskRetries != 1 || st.TasksRun != 1 {
		t.Fatalf("node-1 stats = %+v, want 1 panic, 1 retry, 1 run", st)
	}
	if st := nodes[0].srv.Stats(); st.TasksForwarded != 1 || st.ForwardDegraded != 0 {
		t.Fatalf("origin stats = %+v, want 1 clean forward", st)
	}
	assertAllStoresClean(t, nodes)
}
