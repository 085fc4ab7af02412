package cpufreq

import (
	"os"
	"path/filepath"
	"testing"
)

// fakeSysfs fabricates a cpufreq policy tree and returns its root.
func fakeSysfs(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, "cpu0", "cpufreq")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func pentiumMFiles() map[string]string {
	return map[string]string{
		"scaling_available_frequencies": "600000 800000 1000000 1200000 1400000 1500000\n",
		"scaling_cur_freq":              "1500000\n",
		"scaling_governor":              "userspace\n",
		"scaling_setspeed":              "<unsupported>\n",
		"cpuinfo_min_freq":              "600000\n",
		"cpuinfo_max_freq":              "1500000\n",
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{Root: t.TempDir()}); err == nil {
		t.Error("missing cpufreq dir accepted")
	}
	if _, err := Open(Config{Root: t.TempDir(), CPU: -1}); err == nil {
		t.Error("negative cpu accepted")
	}
	root := fakeSysfs(t, pentiumMFiles())
	if _, err := Open(Config{Root: root}); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
}

func TestAvailableKHzSortedDescending(t *testing.T) {
	root := fakeSysfs(t, pentiumMFiles())
	i, err := Open(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	freqs, err := i.AvailableKHz()
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1500000, 1400000, 1200000, 1000000, 800000, 600000}
	if len(freqs) != len(want) {
		t.Fatalf("got %v", freqs)
	}
	for j := range want {
		if freqs[j] != want[j] {
			t.Fatalf("freqs = %v, want %v", freqs, want)
		}
	}
}

func TestAvailableKHzFallsBackToMinMax(t *testing.T) {
	files := pentiumMFiles()
	delete(files, "scaling_available_frequencies")
	root := fakeSysfs(t, files)
	i, err := Open(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	freqs, err := i.AvailableKHz()
	if err != nil {
		t.Fatal(err)
	}
	if len(freqs) != 2 || freqs[0] != 1500000 || freqs[1] != 600000 {
		t.Fatalf("fallback freqs = %v", freqs)
	}
}

func TestAvailableKHzMalformed(t *testing.T) {
	files := pentiumMFiles()
	files["scaling_available_frequencies"] = "fast slow\n"
	root := fakeSysfs(t, files)
	i, err := Open(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := i.AvailableKHz(); err == nil {
		t.Error("malformed list accepted")
	}
}

func TestCurrentAndGovernor(t *testing.T) {
	root := fakeSysfs(t, pentiumMFiles())
	i, err := Open(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	gov, err := i.Governor()
	if err != nil || gov != "userspace" {
		t.Errorf("Governor = %q, %v", gov, err)
	}
}

func TestSetKHzWrites(t *testing.T) {
	root := fakeSysfs(t, pentiumMFiles())
	i, err := Open(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	if err := i.SetKHz(800000); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "cpu0", "cpufreq", "scaling_setspeed"))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "800000" {
		t.Errorf("scaling_setspeed = %q", b)
	}
	if err := i.SetKHz(0); err == nil {
		t.Error("zero frequency accepted")
	}
}

func TestActuator(t *testing.T) {
	root := fakeSysfs(t, pentiumMFiles())
	i, err := Open(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewActuator(i)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 6 || a.cur != -1 {
		t.Fatalf("fresh actuator: len=%d cur=%d", a.Len(), a.cur)
	}
	if f, _ := a.FrequencyKHz(0); f != 1500000 {
		t.Errorf("setting 0 = %d kHz", f)
	}
	if _, err := a.FrequencyKHz(9); err == nil {
		t.Error("out-of-range setting accepted")
	}
	if err := a.Set(5); err != nil {
		t.Fatal(err)
	}
	if a.cur != 5 {
		t.Errorf("Current = %d", a.cur)
	}
	// Redundant Set must not rewrite: plant a sentinel and set the
	// same setting again — the sentinel survives.
	setspeed := filepath.Join(root, "cpu0", "cpufreq", "scaling_setspeed")
	if err := os.WriteFile(setspeed, []byte("sentinel"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := a.Set(5); err != nil {
		t.Errorf("redundant Set failed: %v", err)
	}
	if b, _ := os.ReadFile(setspeed); string(b) != "sentinel" {
		t.Errorf("redundant Set rewrote the file: %q", b)
	}
	// A real change writes through.
	if err := a.Set(0); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(setspeed); string(b) != "1500000" {
		t.Errorf("Set(0) wrote %q", b)
	}
}

func TestOpenRealSysfs(t *testing.T) {
	// On machines with a real cpufreq driver this exercises the true
	// read path; elsewhere it documents the graceful degradation.
	i, err := Open(DefaultConfig())
	if err != nil {
		t.Skipf("no cpufreq on this machine: %v", err)
	}
	if _, err := i.AvailableKHz(); err != nil {
		t.Logf("real ladder unavailable: %v", err)
	}
}
