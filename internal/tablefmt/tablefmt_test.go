package tablefmt

import (
	"reflect"
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := New("demo", "name", "value")
	tb.Row("alpha", 1)
	tb.Row("b", 123456)
	s := tb.String()
	if !strings.Contains(s, "== demo ==") {
		t.Fatalf("missing title: %q", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines: %q", len(lines), s)
	}
	// The value column should start at the same offset in both data rows.
	if strings.Index(lines[3], "1") != strings.Index(lines[4], "123456") {
		t.Fatalf("columns misaligned:\n%s", s)
	}
}

func TestFloatFormatting(t *testing.T) {
	tb := New("", "v")
	tb.Row(0.0)
	tb.Row(3.14159)
	tb.Row(1234.5)
	tb.Row(1e9)
	tb.Row(1e-5)
	s := tb.String()
	for _, want := range []string{"0", "3.14", "1234", "1e+09", "1e-05"} {
		if !strings.Contains(s, want) {
			t.Fatalf("formatted output %q missing %q", s, want)
		}
	}
}

func TestCSV(t *testing.T) {
	tb := New("x", "a", "b")
	tb.Row("hello, world", 2)
	tb.Row(`say "hi"`, 3)
	csv := tb.CSV()
	if !strings.Contains(csv, `"hello, world",2`) {
		t.Fatalf("comma cell not quoted: %q", csv)
	}
	if !strings.Contains(csv, `"say ""hi""",3`) {
		t.Fatalf("quote cell not escaped: %q", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Fatalf("header missing: %q", csv)
	}
}

// Row appends one row of formatted cells; New starts with none, and a table
// with no rows still encodes them as [] rather than null.
func TestRowAppends(t *testing.T) {
	tb := New("", "a", "b")
	if tb.Rows == nil || len(tb.Rows) != 0 {
		t.Fatalf("new table rows = %#v, want empty and non-nil", tb.Rows)
	}
	tb.Row(1, 2.5)
	tb.Row("x", 0.0)
	want := [][]string{{"1", "2.5"}, {"x", "0"}}
	if !reflect.DeepEqual(tb.Rows, want) {
		t.Fatalf("rows = %q, want %q", tb.Rows, want)
	}
}

func TestNoTitle(t *testing.T) {
	tb := New("", "h")
	tb.Row("x")
	if strings.Contains(tb.String(), "==") {
		t.Fatal("title rendered for empty title")
	}
}
