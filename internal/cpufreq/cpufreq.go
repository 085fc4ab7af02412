// Package cpufreq actuates real DVFS through the Linux cpufreq sysfs
// interface — the modern descendant of the SpeedStep MSR writes the
// paper's kernel module performs. Together with package perfevent it
// completes a real-hardware deployment path: live counters in, live
// frequency settings out.
//
// All paths are rooted at a configurable directory, so the full parse
// and actuation logic is unit-testable against a fabricated sysfs
// tree; on a real machine writes additionally require the `userspace`
// scaling governor and root privileges, and every failure mode is
// reported as a normal error.
package cpufreq

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Config locates the cpufreq tree.
type Config struct {
	// Root is the sysfs cpu directory; empty selects
	// /sys/devices/system/cpu.
	Root string
	// CPU is the logical CPU whose policy is driven.
	CPU int
}

// DefaultConfig targets cpu0 on the real sysfs.
func DefaultConfig() Config {
	return Config{Root: "/sys/devices/system/cpu", CPU: 0}
}

// Interface drives one CPU's frequency policy.
type Interface struct {
	dir string
}

// ErrUnavailable reports that the cpufreq tree is missing — no driver,
// or not Linux.
var ErrUnavailable = errors.New("cpufreq: scaling interface unavailable")

// Open validates the policy directory.
func Open(cfg Config) (*Interface, error) {
	if cfg.Root == "" {
		cfg.Root = DefaultConfig().Root
	}
	if cfg.CPU < 0 {
		return nil, fmt.Errorf("cpufreq: negative cpu %d", cfg.CPU)
	}
	dir := filepath.Join(cfg.Root, fmt.Sprintf("cpu%d", cfg.CPU), "cpufreq")
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		return nil, fmt.Errorf("%w: %s", ErrUnavailable, dir)
	}
	return &Interface{dir: dir}, nil
}

func (i *Interface) read(name string) (string, error) {
	b, err := os.ReadFile(filepath.Join(i.dir, name))
	if err != nil {
		return "", fmt.Errorf("cpufreq: reading %s: %w", name, err)
	}
	return strings.TrimSpace(string(b)), nil
}

func (i *Interface) write(name, value string) error {
	if err := os.WriteFile(filepath.Join(i.dir, name), []byte(value), 0o644); err != nil {
		return fmt.Errorf("cpufreq: writing %s: %w", name, err)
	}
	return nil
}

// AvailableKHz returns the platform's frequency ladder in kHz, fastest
// first. It prefers scaling_available_frequencies and falls back to
// the min/max pair when the driver does not enumerate steps.
func (i *Interface) AvailableKHz() ([]uint64, error) {
	if s, err := i.read("scaling_available_frequencies"); err == nil && s != "" {
		fields := strings.Fields(s)
		out := make([]uint64, 0, len(fields))
		for _, f := range fields {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("cpufreq: malformed frequency %q: %w", f, err)
			}
			out = append(out, v)
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("cpufreq: empty frequency list")
		}
		sort.Slice(out, func(a, b int) bool { return out[a] > out[b] })
		return out, nil
	}
	minS, err := i.read("cpuinfo_min_freq")
	if err != nil {
		return nil, err
	}
	maxS, err := i.read("cpuinfo_max_freq")
	if err != nil {
		return nil, err
	}
	minV, err := strconv.ParseUint(minS, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("cpufreq: malformed min frequency %q: %w", minS, err)
	}
	maxV, err := strconv.ParseUint(maxS, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("cpufreq: malformed max frequency %q: %w", maxS, err)
	}
	if maxV < minV {
		return nil, fmt.Errorf("cpufreq: max %d below min %d", maxV, minV)
	}
	if maxV == minV {
		return []uint64{maxV}, nil
	}
	return []uint64{maxV, minV}, nil
}

// Governor returns the active scaling governor.
func (i *Interface) Governor() (string, error) {
	return i.read("scaling_governor")
}

// SetKHz requests a frequency via scaling_setspeed.
func (i *Interface) SetKHz(khz uint64) error {
	if khz == 0 {
		return fmt.Errorf("cpufreq: zero frequency")
	}
	return i.write("scaling_setspeed", strconv.FormatUint(khz, 10))
}

// Actuator maps ladder-style settings (0 = fastest) onto SetKHz calls,
// skipping redundant writes the way the paper's handler skips
// redundant mode-set writes.
type Actuator struct {
	iface *Interface
	freqs []uint64
	cur   int
}

// NewActuator snapshots the frequency ladder and positions the
// actuator at the fastest setting without writing yet.
func NewActuator(iface *Interface) (*Actuator, error) {
	freqs, err := iface.AvailableKHz()
	if err != nil {
		return nil, err
	}
	return &Actuator{iface: iface, freqs: freqs, cur: -1}, nil
}

// Len returns the number of settings.
func (a *Actuator) Len() int { return len(a.freqs) }

// FrequencyKHz returns the frequency of a setting.
func (a *Actuator) FrequencyKHz(setting int) (uint64, error) {
	if setting < 0 || setting >= len(a.freqs) {
		return 0, fmt.Errorf("cpufreq: setting %d out of range [0,%d)", setting, len(a.freqs))
	}
	return a.freqs[setting], nil
}

// Set applies a setting, writing only on change.
func (a *Actuator) Set(setting int) error {
	khz, err := a.FrequencyKHz(setting)
	if err != nil {
		return err
	}
	if setting == a.cur {
		return nil
	}
	if err := a.iface.SetKHz(khz); err != nil {
		return err
	}
	a.cur = setting
	return nil
}
