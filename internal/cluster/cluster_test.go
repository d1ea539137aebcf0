package cluster

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// peerHandler answers ForwardPath like the service does: body bytes plus the
// CRC header (optionally lying about the checksum or omitting it).
func peerHandler(body string, opts ...func(http.Header)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != ForwardPath {
			http.NotFound(w, r)
			return
		}
		w.Header().Set(HeaderCRC, fmt.Sprintf("%08x", crc32.ChecksumIEEE([]byte(body))))
		for _, o := range opts {
			o(w.Header())
		}
		w.Write([]byte(body))
	})
}

func testClient(t *testing.T, peerURL string, mut func(*Options)) *Client {
	t.Helper()
	opts := Options{
		Self:           "node-0",
		Peers:          map[string]string{"node-0": "", "node-1": peerURL},
		AttemptTimeout: 2 * time.Second,
		Retries:        -1, // no retries unless the test asks
		Backoff:        -1,
	}
	if mut != nil {
		mut(&opts)
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const testKey = "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"

func TestForwardVerifiesCRCAndHeaders(t *testing.T) {
	ts := httptest.NewServer(peerHandler(`{"ok":true}`, func(h http.Header) {
		h.Set(HeaderCached, "1")
	}))
	defer ts.Close()
	c := testClient(t, ts.URL, nil)

	res, err := c.Forward(context.Background(), "node-1", ForwardRequest{Key: testKey})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Data) != `{"ok":true}` || !res.RemoteCached || res.RemoteDegraded {
		t.Fatalf("result = %+v", res)
	}
	st := c.Snapshot()
	ps := st.Peers["node-1"]
	if ps.Forwards != 1 || ps.RemoteHits != 1 || ps.Failures != 0 || ps.State != "closed" {
		t.Fatalf("peer stats = %+v", ps)
	}
}

func TestForwardRejectsCorruptAndMissingCRC(t *testing.T) {
	lying := httptest.NewServer(peerHandler("payload", func(h http.Header) {
		h.Set(HeaderCRC, "deadbeef")
	}))
	defer lying.Close()
	c := testClient(t, lying.URL, nil)
	if _, err := c.Forward(context.Background(), "node-1", ForwardRequest{Key: testKey}); err == nil ||
		!strings.Contains(err.Error(), "torn forward") {
		t.Fatalf("corrupt crc err = %v, want torn forward", err)
	}

	bare := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("payload"))
	}))
	defer bare.Close()
	c2 := testClient(t, bare.URL, nil)
	if _, err := c2.Forward(context.Background(), "node-1", ForwardRequest{Key: testKey}); err == nil ||
		!strings.Contains(err.Error(), HeaderCRC) {
		t.Fatalf("missing crc err = %v", err)
	}
}

// The per-attempt deadline cancels the in-flight request, and net/http
// propagates that cancellation into the peer handler's request context —
// the owner must see the caller give up, not keep computing for a client
// that is gone.
func TestForwardAttemptTimeoutPropagatesCancelToPeer(t *testing.T) {
	peerCancelled := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Consume the body first, like the real forward handler's JSON
		// decode does — net/http only watches for client disconnect once
		// the request body has been read.
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
			close(peerCancelled)
		case <-time.After(30 * time.Second):
		}
	}))
	defer ts.Close()
	c := testClient(t, ts.URL, func(o *Options) { o.AttemptTimeout = 50 * time.Millisecond })

	start := time.Now()
	_, err := c.Forward(context.Background(), "node-1", ForwardRequest{Key: testKey})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forward err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("attempt deadline did not bound the forward")
	}
	select {
	case <-peerCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("peer request context never cancelled: ctx did not propagate over the wire")
	}
	if ps := c.Snapshot().Peers["node-1"]; ps.Failures != 1 || ps.Degraded != 1 {
		t.Fatalf("peer stats = %+v, want 1 failure / 1 degraded", ps)
	}
}

// Consecutive failures open the peer's breaker; while open, forwards are
// refused without touching the wire, and after the cooldown a successful
// probe re-routes traffic back (the ring "heals").
func TestForwardBreakerOpensAndHeals(t *testing.T) {
	healthy := false
	var hits int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		if !healthy {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		peerHandler("ok").ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := testClient(t, ts.URL, func(o *Options) {
		o.BreakerThreshold = 2
		o.BreakerCooldown = 50 * time.Millisecond
	})

	for i := 0; i < 2; i++ {
		if _, err := c.Forward(context.Background(), "node-1", ForwardRequest{Key: testKey}); err == nil {
			t.Fatal("failing peer forwarded")
		}
	}
	if st := c.Snapshot().Peers["node-1"]; st.State != "open" || st.BreakerOpens != 1 {
		t.Fatalf("peer stats = %+v, want open breaker", st)
	}
	// Open breaker: refused with zero wire traffic.
	wireBefore := hits
	if _, err := c.Forward(context.Background(), "node-1", ForwardRequest{Key: testKey}); err == nil ||
		!strings.Contains(err.Error(), "breaker open") {
		t.Fatalf("open-breaker forward err = %v", err)
	}
	if hits != wireBefore {
		t.Fatal("open breaker still hit the wire")
	}

	// Heal: peer recovers, cooldown passes, the probe succeeds and traffic
	// flows again.
	healthy = true
	time.Sleep(80 * time.Millisecond)
	res, err := c.Forward(context.Background(), "node-1", ForwardRequest{Key: testKey})
	if err != nil || string(res.Data) != "ok" {
		t.Fatalf("healed forward = %v, %v", res, err)
	}
	if st := c.Snapshot().Peers["node-1"]; st.State != "closed" {
		t.Fatalf("peer state after heal = %q, want closed", st.State)
	}
}

func TestForwardRetriesThenDegrades(t *testing.T) {
	var hits int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	c := testClient(t, ts.URL, func(o *Options) {
		o.Retries = 2
		o.Backoff = time.Millisecond
		o.BreakerThreshold = -1
	})
	if _, err := c.Forward(context.Background(), "node-1", ForwardRequest{Key: testKey}); err == nil {
		t.Fatal("persistently failing peer forwarded")
	}
	if hits != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", hits)
	}
	ps := c.Snapshot().Peers["node-1"]
	if ps.Retries != 2 || ps.Failures != 3 || ps.Degraded != 1 {
		t.Fatalf("peer stats = %+v", ps)
	}
}

// A failure that opens the breaker ends Forward at once: no backoff pause,
// and no retry counted for an attempt the open breaker would refuse.
func TestForwardStopsWhenBreakerOpens(t *testing.T) {
	var hits int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	const backoff = time.Second
	c := testClient(t, ts.URL, func(o *Options) {
		o.Retries = 2
		o.Backoff = backoff
		o.BreakerThreshold = 1
	})
	start := time.Now()
	if _, err := c.Forward(context.Background(), "node-1", ForwardRequest{Key: testKey}); err == nil {
		t.Fatal("failing peer forwarded")
	}
	if took := time.Since(start); took >= backoff {
		t.Fatalf("Forward took %v, want no backoff pause (< %v)", took, backoff)
	}
	if hits != 1 {
		t.Fatalf("attempts = %d, want 1", hits)
	}
	ps := c.Snapshot().Peers["node-1"]
	if ps.Retries != 0 || ps.Failures != 1 || ps.Degraded != 1 {
		t.Fatalf("peer stats = %+v, want 0 retries, 1 failure, 1 degraded", ps)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New without Self succeeded")
	}
	if _, err := New(Options{Self: "a", Peers: map[string]string{"b": ""}}); err == nil {
		t.Fatal("New with url-less peer succeeded")
	}
	c, err := New(Options{Self: "a", Peers: map[string]string{"a": "ignored", "b": "http://x"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Members(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("members = %v", got)
	}
	if _, err := c.Forward(context.Background(), "ghost", ForwardRequest{Key: testKey}); err == nil {
		t.Fatal("forward to unknown peer succeeded")
	}
}
