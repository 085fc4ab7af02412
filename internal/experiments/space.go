package experiments

import (
	"fmt"
	"io"

	"phasemon/internal/workload"
)

// --- Figure 6 ------------------------------------------------------

// Fig6Result is the exploration-space data: the SPEC-observed
// (UPC, Mem/Uop) sample cloud, the IPCxMEM grid, and the boundary
// curve.
type Fig6Result struct {
	// SPECPoints are (UPC, Mem/Uop) pairs sampled from every
	// benchmark's execution at the top frequency.
	SPECPoints []workload.GridPoint
	// Grid is the IPCxMEM suite's configuration grid.
	Grid []workload.GridPoint
	// Boundary samples the SPEC boundary curve at the given Mem/Uop
	// values.
	Boundary []workload.GridPoint
}

// Figure6 assembles the exploration space. To keep the point cloud
// manageable it samples every benchmark's observation stream at a
// stride.
func Figure6(o Options) (*Fig6Result, error) {
	return figure(o, "fig6", figure6)
}

func figure6(o Options) (*Fig6Result, error) {
	res := &Fig6Result{Grid: workload.IPCxMEMGrid()}
	const stride = 25
	for _, p := range workload.All() {
		obs, err := observations(p, o)
		if err != nil {
			return nil, err
		}
		for i := 0; i < len(obs); i += stride {
			res.SPECPoints = append(res.SPECPoints, workload.GridPoint{
				UPC:       obs[i].Sample.UPC,
				MemPerUop: obs[i].Sample.MemPerUop,
			})
		}
	}
	for m := 0.0; m <= 0.0601; m += 0.002 {
		res.Boundary = append(res.Boundary, workload.GridPoint{
			UPC:       workload.SPECBoundary(m),
			MemPerUop: m,
		})
	}
	return res, nil
}

func runFigure6(o Options, w io.Writer) error {
	res, err := Figure6(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "SPEC sample points: %d\n", len(res.SPECPoints))
	fmt.Fprintf(w, "IPCxMEM grid configurations: %d\n", len(res.Grid))
	fmt.Fprintln(w, "\nIPCxMEM grid (UPC x Mem/Uop):")
	for _, g := range res.Grid {
		fmt.Fprintf(w, "  upc=%.1f mem=%.4f\n", g.UPC, g.MemPerUop)
	}
	fmt.Fprintln(w, "\nSPEC boundary curve:")
	for _, b := range res.Boundary {
		fmt.Fprintf(w, "  mem=%.4f maxUPC=%.3f\n", b.MemPerUop, b.UPC)
	}
	return nil
}

// --- Figure 7 ------------------------------------------------------

// Fig7Row is one IPCxMEM configuration's observed metrics at one
// frequency.
type Fig7Row struct {
	// Target identifies the configuration (its coordinates at the top
	// frequency).
	Target workload.GridPoint
	// FrequencyHz is the DVFS frequency of this measurement.
	FrequencyHz float64
	// UPC and MemPerUop are the observed (counter-derived) metrics.
	UPC       float64
	MemPerUop float64
}

// Figure7 runs every Figure 7 legend configuration at all six
// Pentium-M frequencies and reports the observed UPC and Mem/Uop —
// the paper's demonstration that Mem/Uop is DVFS-invariant while UPC
// is not.
func Figure7(o Options) ([]Fig7Row, error) {
	return figure(o, "fig7", figure7)
}

func figure7(o Options) ([]Fig7Row, error) {
	m := model()
	const fmax = 1.5e9
	freqs := []float64{1500e6, 1400e6, 1200e6, 1000e6, 800e6, 600e6}
	var out []Fig7Row
	for _, cfg := range workload.Figure7Points() {
		work, err := m.GridWork(cfg.UPC, cfg.MemPerUop, fmax, granularityUops)
		if err != nil {
			return nil, err
		}
		for _, f := range freqs {
			r, err := m.Execute(work, f)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig7Row{
				Target:      cfg,
				FrequencyHz: f,
				UPC:         r.UPC,
				MemPerUop:   r.MemPerUop,
			})
		}
	}
	return out, nil
}

func runFigure7(o Options, w io.Writer) error {
	rows, err := Figure7(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "target(UPC,Mem/Uop)      freq[MHz]   observed UPC   observed Mem/Uop")
	var last workload.GridPoint
	for _, r := range rows {
		if r.Target != last {
			fmt.Fprintln(w)
			last = r.Target
		}
		fmt.Fprintf(w, "UPC=%.1f Mem/Uop=%.4f   %8.0f   %12.4f   %16.4f\n",
			r.Target.UPC, r.Target.MemPerUop, r.FrequencyHz/1e6, r.UPC, r.MemPerUop)
	}
	return nil
}
