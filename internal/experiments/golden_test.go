package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// The table experiments render the paper's exact artifacts, so their
// output is pinned byte-for-byte.
func TestTableRendersMatchGolden(t *testing.T) {
	cases := []struct {
		name string
		run  func(Options, *bytes.Buffer) error
	}{
		{"table1", func(o Options, b *bytes.Buffer) error { return runTable1(o, b) }},
		{"table2", func(o Options, b *bytes.Buffer) error { return runTable2(o, b) }},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := c.run(Options{}, &buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", c.name+".golden"))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := bytes.TrimRight(buf.Bytes(), "\n"); !bytes.Equal(got, bytes.TrimRight(want, "\n")) {
			t.Errorf("%s render drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s",
				c.name, got, want)
		}
	}
}

// goldenIntervals keeps the simulated-figure goldens short enough for
// the race suite while still crossing every phase of every benchmark.
const goldenIntervals = 512

// TestSimulatedFiguresMatchGolden pins the management figures (and the
// thermal extension, the only one whose leakage depends on die
// temperature) byte-for-byte, so a change that moves one simulated
// watt, cycle or joule shows up as a diff. Pinned products do not make
// the floats portable: math.Exp and math.Log run per-architecture
// assembly, and math/rand's NormFloat64 and ExpFloat64 call both and
// fuse multiply-adds of their own on arm64, so the pin holds on amd64
// only.
func TestSimulatedFiguresMatchGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden floats are pinned on amd64, not %s", runtime.GOARCH)
	}
	for _, name := range []string{"fig11", "fig12", "fig13", "ext-dtm"} {
		r, err := LookupAny(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.Run(Options{Intervals: goldenIntervals, Workers: 2}, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s render drifted from testdata/%s.golden:\n--- got ---\n%s", name, name, buf.Bytes())
		}
	}
}

// TestFiguresJobMatchesGolden renders the benchmark's figures job
// through one shared Cache, as cmd/experiments does, and pins the text
// byte-for-byte. testdata/figures-job.golden was written by a build in
// which every figure computed its own runs and streams, so it also
// proves that sharing them changes nothing. Like the figure pins, it
// holds on amd64 only.
func TestFiguresJobMatchesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden floats are pinned on amd64, not %s", runtime.GOARCH)
	}
	got := render(t, figuresJob, Options{Intervals: goldenIntervals, Workers: 2, Cache: NewCache()})
	want, err := os.ReadFile(filepath.Join("testdata", "figures-job.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("figures job drifted from testdata/figures-job.golden:\n--- got ---\n%s", got)
	}
}
