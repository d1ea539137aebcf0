package result

import (
	"bytes"
	"strings"
	"testing"

	"parbw/internal/tablefmt"
)

func sample() *Result {
	r := New("table1/demo", "Demo", "Table 1", NewParams(7, map[string]string{"quick": "true"}))
	r.AddTable(tablefmt.Table{
		Title:   "demo table",
		Columns: []string{"p", "measured", "predicted"},
		Rows:    [][]string{{"64", "128", "100"}, {"256", "512", "400"}},
	})
	r.Notef("swept %d sizes", 2)
	r.AddVerdict("demo/ok", true, "shape matches")
	r.Finalize()
	return r
}

func TestCanonicalJSONStable(t *testing.T) {
	a, err := sample().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sample().CanonicalJSON()
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical JSON differs:\n%s\n%s", a, b)
	}
}

func TestWallTimeExcludedFromJSON(t *testing.T) {
	r := sample()
	r.WallNS = 12345
	withWall, _ := r.CanonicalJSON()
	r.WallNS = 99999
	again, _ := r.CanonicalJSON()
	if !bytes.Equal(withWall, again) {
		t.Fatal("WallNS leaked into canonical JSON")
	}
	if strings.Contains(string(withWall), "12345") {
		t.Fatal("wall time serialized")
	}
}

func TestRoundTrip(t *testing.T) {
	r := sample()
	data, _ := r.CanonicalJSON()
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, _ := back.CanonicalJSON()
	if !bytes.Equal(data, data2) {
		t.Fatal("JSON round-trip not byte-identical")
	}
}

func TestFinalizeModelTime(t *testing.T) {
	r := sample()
	if r.ModelTime != 128+512 {
		t.Fatalf("ModelTime = %v, want 640", r.ModelTime)
	}
}

// Render must match the bytes the harness used to print directly: tables via
// tablefmt with a blank separator line (text) or raw CSV.
func TestRenderMatchesTablefmt(t *testing.T) {
	r := sample()
	ft := tablefmt.New("demo table", "p", "measured", "predicted")
	ft.Row(64, 128, 100)
	ft.Row(256, 512, 400)

	var text bytes.Buffer
	r.Render(&text, false)
	if !strings.HasPrefix(text.String(), ft.String()+"\n") {
		t.Fatalf("text render diverges from tablefmt:\n%q", text.String())
	}
	if !strings.Contains(text.String(), "note: swept 2 sizes") {
		t.Fatal("note missing from text render")
	}
	if !strings.Contains(text.String(), "[PASS] demo/ok") {
		t.Fatal("verdict missing from text render")
	}

	var csv bytes.Buffer
	r.Render(&csv, true)
	if csv.String() != ft.CSV() {
		t.Fatalf("CSV render diverges:\n%q\nwant\n%q", csv.String(), ft.CSV())
	}
}
