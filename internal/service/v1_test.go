package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parbw/internal/runstore"
)

// do issues an arbitrary request and returns status, headers and body.
func do(t *testing.T, method, url, body string) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// Every non-2xx response of the v1 surface must carry the uniform envelope
// {"error":{"code","message",...}} with a stable code and a non-empty
// message — on the /v1/ paths and the deprecated aliases alike.
func TestErrorEnvelopeUniform(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	missingKey := strings.Repeat("ab", 32)
	cases := []struct {
		name, method, path, body string
		status                   int
		code                     string
	}{
		{"bad body", "POST", "/v1/runs", `{not json`, http.StatusBadRequest, CodeBadRequest},
		{"unknown field", "POST", "/v1/runs", `{"bogus":1}`, http.StatusBadRequest, CodeBadRequest},
		{"unknown experiment", "POST", "/v1/runs", `{"experiments":["table1/brodcast"]}`, http.StatusBadRequest, CodeUnknownExperiment},
		{"empty submission", "POST", "/v1/runs", `{}`, http.StatusBadRequest, CodeBadRequest},
		{"job not found", "GET", "/v1/runs/job-999999", "", http.StatusNotFound, CodeNotFound},
		{"key not found", "GET", "/v1/runs/" + missingKey, "", http.StatusNotFound, CodeNotFound},
		{"delete job not found", "DELETE", "/v1/runs/job-999999", "", http.StatusNotFound, CodeNotFound},
		{"delete key not found", "DELETE", "/v1/runs/" + missingKey, "", http.StatusNotFound, CodeNotFound},
		{"bad limit", "GET", "/v1/runs?limit=abc", "", http.StatusBadRequest, CodeBadRequest},
		{"zero limit", "GET", "/v1/runs?limit=0", "", http.StatusBadRequest, CodeBadRequest},
		{"negative limit", "GET", "/v1/runs?limit=-3", "", http.StatusBadRequest, CodeBadRequest},
		{"unknown cursor", "GET", "/v1/runs?cursor=job-000099", "", http.StatusBadRequest, CodeBadRequest},
		// The deprecated aliases answer with the same envelope.
		{"legacy job not found", "GET", "/runs/job-999999", "", http.StatusNotFound, CodeNotFound},
		{"legacy unknown experiment", "POST", "/runs", `{"experiments":["nope/nope"]}`, http.StatusBadRequest, CodeUnknownExperiment},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, hdr, body := do(t, tc.method, ts.URL+tc.path, tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d (body %s)", status, tc.status, body)
			}
			if ct := hdr.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			var e ErrorEnvelope
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("body is not the error envelope: %v: %s", err, body)
			}
			if e.Error.Code != tc.code {
				t.Fatalf("code %q, want %q (message %q)", e.Error.Code, tc.code, e.Error.Message)
			}
			if e.Error.Message == "" {
				t.Fatal("empty error message")
			}
		})
	}
}

// submitJob runs one experiment to completion and returns its JobSummary.
func submitJob(t *testing.T, ts *httptest.Server, experiment string) JobSummary {
	t.Helper()
	code, body := postRuns(t, ts, fmt.Sprintf(`{"experiments":[%q],"quick":true}`, experiment))
	if code != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", experiment, code, body)
	}
	var v JobSummary
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// jobTasks fetches one page of a job's tasks via GET /v1/runs/{id}/tasks.
func jobTasks(t *testing.T, ts *httptest.Server, id string) []Task {
	t.Helper()
	var page taskPage
	if code := getJSON(t, ts, "/v1/runs/"+id+"/tasks", &page); code != http.StatusOK {
		t.Fatalf("GET tasks for %s: status %d", id, code)
	}
	return page.Tasks
}

func TestListRunsPagination(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j1 := submitJob(t, ts, "table1/broadcast")
	j2 := submitJob(t, ts, "table1/parity")
	j3 := submitJob(t, ts, "table1/broadcast")

	var page runList
	if code := getJSON(t, ts, "/v1/runs?limit=2", &page); code != http.StatusOK {
		t.Fatalf("limit=2: status %d", code)
	}
	if len(page.Jobs) != 2 || page.Jobs[0].ID != j1.ID || page.Jobs[1].ID != j2.ID {
		t.Fatalf("page 1 = %v", ids(page.Jobs))
	}
	if page.NextCursor != j2.ID {
		t.Fatalf("next_cursor = %q, want %q", page.NextCursor, j2.ID)
	}

	var page2 runList
	if code := getJSON(t, ts, "/v1/runs?limit=2&cursor="+page.NextCursor, &page2); code != http.StatusOK {
		t.Fatalf("page 2: status %d", code)
	}
	if len(page2.Jobs) != 1 || page2.Jobs[0].ID != j3.ID {
		t.Fatalf("page 2 = %v", ids(page2.Jobs))
	}
	if page2.NextCursor != "" {
		t.Fatalf("page 2 next_cursor = %q, want none", page2.NextCursor)
	}

	// A cursor at the very end yields an empty page, not an error.
	var empty runList
	if code := getJSON(t, ts, "/v1/runs?limit=2&cursor="+j3.ID, &empty); code != http.StatusOK {
		t.Fatalf("cursor past end: status %d", code)
	}
	if len(empty.Jobs) != 0 || empty.NextCursor != "" {
		t.Fatalf("cursor past end = %v next=%q, want empty page", ids(empty.Jobs), empty.NextCursor)
	}
	// ... and serializes as [], not null.
	_, _, raw := do(t, "GET", ts.URL+"/v1/runs?limit=2&cursor="+j3.ID, "")
	if !strings.Contains(string(raw), `"jobs":[]`) {
		t.Fatalf("empty page body = %s, want \"jobs\":[]", raw)
	}

	// Experiment filtering, alone and combined with pagination.
	var filtered runList
	if code := getJSON(t, ts, "/v1/runs?experiment=table1/parity", &filtered); code != http.StatusOK {
		t.Fatalf("filter: status %d", code)
	}
	if len(filtered.Jobs) != 1 || filtered.Jobs[0].ID != j2.ID {
		t.Fatalf("filter = %v, want [%s]", ids(filtered.Jobs), j2.ID)
	}
	var fpage runList
	if code := getJSON(t, ts, "/v1/runs?experiment=table1/broadcast&limit=1", &fpage); code != http.StatusOK {
		t.Fatalf("filter+limit: status %d", code)
	}
	if len(fpage.Jobs) != 1 || fpage.Jobs[0].ID != j1.ID || fpage.NextCursor != j1.ID {
		t.Fatalf("filter+limit = %v next=%q", ids(fpage.Jobs), fpage.NextCursor)
	}
	var fpage2 runList
	if code := getJSON(t, ts, "/v1/runs?experiment=table1/broadcast&limit=1&cursor="+fpage.NextCursor, &fpage2); code != http.StatusOK {
		t.Fatalf("filter page 2: status %d", code)
	}
	if len(fpage2.Jobs) != 1 || fpage2.Jobs[0].ID != j3.ID || fpage2.NextCursor != "" {
		t.Fatalf("filter page 2 = %v next=%q", ids(fpage2.Jobs), fpage2.NextCursor)
	}

	// No limit keeps the legacy whole-listing shape with no cursor.
	var all runList
	if code := getJSON(t, ts, "/v1/runs", &all); code != http.StatusOK {
		t.Fatalf("unpaged: status %d", code)
	}
	if len(all.Jobs) != 3 || all.NextCursor != "" {
		t.Fatalf("unpaged = %v next=%q", ids(all.Jobs), all.NextCursor)
	}
}

func ids(jobs []JobSummary) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

// The unversioned paths must answer exactly like /v1/, flagged with
// Deprecation and Sunset headers — and disappear entirely when the server is
// built with NoUnversionedAliases.
func TestDeprecatedAliases(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/experiments", "/runs", "/healthz", "/readyz", "/statsz"} {
		status, hdr, _ := do(t, "GET", ts.URL+path, "")
		if status != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, status)
		}
		if hdr.Get("Deprecation") == "" {
			t.Fatalf("GET %s: missing Deprecation header", path)
		}
		if hdr.Get("Sunset") != sunsetDate {
			t.Fatalf("GET %s: Sunset = %q, want %q", path, hdr.Get("Sunset"), sunsetDate)
		}
	}
	status, hdr, _ := do(t, "GET", ts.URL+"/v1/experiments", "")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/experiments = %d", status)
	}
	if hdr.Get("Deprecation") != "" {
		t.Fatal("/v1/ path carries a Deprecation header")
	}
	if hdr.Get("Sunset") != "" {
		t.Fatal("/v1/ path carries a Sunset header")
	}
}

// NoUnversionedAliases removes the legacy aliases from the mux: unversioned
// paths 404 while the /v1/ surface keeps working.
func TestCompatUnversionedOff(t *testing.T) {
	s := newTestServer(t, Options{NoUnversionedAliases: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/experiments", "/runs", "/healthz", "/readyz", "/statsz"} {
		status, _, _ := do(t, "GET", ts.URL+path, "")
		if status != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404 with aliases off", path, status)
		}
	}
	for _, path := range []string{"/v1/experiments", "/v1/runs", "/v1/healthz"} {
		status, _, _ := do(t, "GET", ts.URL+path, "")
		if status != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, status)
		}
	}
}

// DELETE /v1/results/{key} removes a stored result; a second delete (or a
// delete of a never-stored key) is a 404 with the envelope. The old key-on-runs
// spelling still answers, flagged Deprecation + Sunset.
func TestDeleteStoredRun(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v := submitJob(t, ts, "table1/broadcast")
	tasks := jobTasks(t, ts, v.ID)
	if len(tasks) == 0 {
		t.Fatal("job has no tasks")
	}
	key := tasks[0].Key
	if status, _, _ := do(t, "GET", ts.URL+"/v1/results/"+key, ""); status != http.StatusOK {
		t.Fatalf("stored result fetch = %d, want 200", status)
	}
	// The deprecated key-on-runs path still serves the same bytes, flagged.
	status, hdr, _ := do(t, "GET", ts.URL+"/v1/runs/"+key, "")
	if status != http.StatusOK {
		t.Fatalf("key-on-runs fetch = %d, want 200", status)
	}
	if hdr.Get("Deprecation") == "" || hdr.Get("Sunset") != sunsetDate {
		t.Fatalf("key-on-runs fetch: Deprecation=%q Sunset=%q, want both set", hdr.Get("Deprecation"), hdr.Get("Sunset"))
	}

	status, _, body := do(t, "DELETE", ts.URL+"/v1/results/"+key, "")
	if status != http.StatusOK {
		t.Fatalf("DELETE = %d: %s", status, body)
	}
	var out map[string]string
	if err := json.Unmarshal(body, &out); err != nil || out["deleted"] != key {
		t.Fatalf("DELETE body = %s", body)
	}

	if status, _, _ := do(t, "GET", ts.URL+"/v1/results/"+key, ""); status != http.StatusNotFound {
		t.Fatalf("fetch after delete = %d, want 404", status)
	}
	status, _, body = do(t, "DELETE", ts.URL+"/v1/results/"+key, "")
	if status != http.StatusNotFound {
		t.Fatalf("second DELETE = %d, want 404", status)
	}
	var e ErrorEnvelope
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != CodeNotFound {
		t.Fatalf("second DELETE body = %s", body)
	}
	// A malformed key on the results resource is a 400, not a 404.
	status, _, body = do(t, "GET", ts.URL+"/v1/results/not-a-key", "")
	if status != http.StatusBadRequest {
		t.Fatalf("bad key fetch = %d (%s), want 400", status, body)
	}
}

// GET /v1/runs/{id}/tasks pages through a job's task grid; the entries carry
// keys and states but never inline result payloads.
func TestRunTasksPagination(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := postRuns(t, ts, `{"experiments":["table1/broadcast"],"seeds":[1,2,3,4,5],"quick":true}`)
	if code != http.StatusOK {
		t.Fatalf("POST: status %d: %s", code, body)
	}
	var v JobSummary
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.TaskCount != 5 || v.TaskStates[StatusDone] != 5 {
		t.Fatalf("summary = %+v, want 5 done tasks", v)
	}

	var p1 taskPage
	if code := getJSON(t, ts, "/v1/runs/"+v.ID+"/tasks?limit=3", &p1); code != http.StatusOK {
		t.Fatalf("page 1 status %d", code)
	}
	if len(p1.Tasks) != 3 || p1.Total != 5 || p1.NextCursor == "" {
		t.Fatalf("page 1 = %d tasks total=%d next=%q", len(p1.Tasks), p1.Total, p1.NextCursor)
	}
	for _, tv := range p1.Tasks {
		if len(tv.Result) != 0 {
			t.Fatalf("task %d inlines result bytes on the tasks page", tv.Seed)
		}
		if tv.Key == "" {
			t.Fatalf("task %d has no key", tv.Seed)
		}
	}
	var p2 taskPage
	if code := getJSON(t, ts, "/v1/runs/"+v.ID+"/tasks?limit=3&cursor="+p1.NextCursor, &p2); code != http.StatusOK {
		t.Fatalf("page 2 status %d", code)
	}
	if len(p2.Tasks) != 2 || p2.NextCursor != "" {
		t.Fatalf("page 2 = %d tasks next=%q, want final 2", len(p2.Tasks), p2.NextCursor)
	}
	if p1.Tasks[0].Seed == p2.Tasks[0].Seed {
		t.Fatal("pages overlap")
	}
	// Bad cursor and bad limit answer 400 with the envelope.
	for _, path := range []string{
		"/v1/runs/" + v.ID + "/tasks?cursor=zebra",
		"/v1/runs/" + v.ID + "/tasks?cursor=99",
		"/v1/runs/" + v.ID + "/tasks?limit=0",
	} {
		status, _, body := do(t, "GET", ts.URL+path, "")
		if status != http.StatusBadRequest {
			t.Fatalf("GET %s = %d (%s), want 400", path, status, body)
		}
	}
	// Unknown job is a 404.
	if status, _, _ := do(t, "GET", ts.URL+"/v1/runs/job-999999/tasks", ""); status != http.StatusNotFound {
		t.Fatalf("unknown job tasks = %d, want 404", status)
	}
}

// The bug this release fixes: DELETE on a store key whose on-disk entry is
// corrupt must quarantine the entry and answer 404 with the envelope — not
// surface a 500 for a result the client could never have fetched.
func TestDeleteQuarantinedRunIs404(t *testing.T) {
	dir := t.TempDir()
	st, err := runstore.Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Store: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	key := strings.Repeat("cd", 32)
	if err := os.MkdirAll(filepath.Join(dir, key[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key[:2], key+".json"), []byte("corrupt entry"), 0o644); err != nil {
		t.Fatal(err)
	}

	status, _, body := do(t, "DELETE", ts.URL+"/v1/runs/"+key, "")
	if status != http.StatusNotFound {
		t.Fatalf("DELETE corrupt entry = %d (%s), want 404", status, body)
	}
	var e ErrorEnvelope
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != CodeNotFound {
		t.Fatalf("DELETE corrupt entry body = %s", body)
	}
	if q := st.Stats().Quarantined; q != 1 {
		t.Fatalf("quarantined = %d, want 1", q)
	}
}
