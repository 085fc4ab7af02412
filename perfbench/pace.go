package main

import (
	"context"
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// schedule is one pacer's share of an open-loop tick. All nodes sample
// once per period; their phases are spread evenly over the period and
// interleaved across pacers, so the union of all pacers' sends is
// evenly spaced. Times are nanoseconds on the mono clock.
type schedule struct {
	start   int64 // the first node's first due time
	period  int64
	stride  int64 // phase gap between consecutive nodes of this pacer
	offset  int64 // phase of this pacer's first node
	nodes   int   // nodes this pacer sends for
	samples int   // samples per node
}

// newSchedule lays out pacer c of pacers for total nodes, node k of
// the fleet going to pacer k%pacers as its node k/pacers.
func newSchedule(start int64, period time.Duration, total, pacers, c, samples int) schedule {
	gap := int64(period) / int64(total)
	return schedule{
		start:   start,
		period:  int64(period),
		stride:  gap * int64(pacers),
		offset:  gap * int64(c),
		nodes:   (total - c + pacers - 1) / pacers,
		samples: samples,
	}
}

// events is how many sends the pacer makes.
func (s schedule) events() int { return s.nodes * s.samples }

// event maps the ith send, in due-time order, to its node and sample.
func (s schedule) event(i int) (node, sample int) { return i % s.nodes, i / s.nodes }

// due is when node's sample is due.
func (s schedule) due(node, sample int) int64 {
	return s.start + s.offset + int64(node)*s.stride + int64(sample)*s.period
}

// pace makes every send of s in due-time order, sleeping until each is
// due; send learns how late (ns) its event went out. now and sleep are
// the clock, injectable for tests.
func pace(ctx context.Context, s schedule, now func() int64, sleep func(time.Duration),
	send func(node, sample int, late int64) error) error {
	for i := 0; i < s.events(); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		node, j := s.event(i)
		due := s.due(node, j)
		if d := due - now(); d > 0 {
			sleep(time.Duration(d))
		}
		if err := send(node, j, max(now()-due, 0)); err != nil {
			return err
		}
	}
	return nil
}

// kernelTimer sleeps on a timerfd read through the runtime's network
// poller. The runtime's own timers wake sub-millisecond sleeps a
// millisecond late, which would make the pacer, not the server, set
// tick's latency; a blocking nanosleep is precise but pins a P, and
// with both Ps of two pacers pinned the receivers starve until the
// runtime's monitor thread polls the network (up to 10 ms).
type kernelTimer struct {
	fd int // kept raw: os.File.Fd would switch the fd to blocking mode
	f  *os.File
}

func newKernelTimer() (*kernelTimer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0x800, 0x80000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &kernelTimer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleep arms the timer d from now and blocks until it fires.
func (t *kernelTimer) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	// struct itimerspec: it_interval (zero: one-shot), then it_value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(t.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		time.Sleep(d)
		return
	}
	var expirations [8]byte
	_, _ = t.f.Read(expirations[:])
}

func (t *kernelTimer) close() { _ = t.f.Close() }
