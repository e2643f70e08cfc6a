package experiments

// Extension experiments beyond the paper's figures: the training-step
// model and the design-space search. They run after the paper artifacts in
// `-run all`.

import (
	"context"
	"fmt"

	"delta/internal/cnn"
	"delta/internal/explore"
	"delta/internal/gpu"
	"delta/internal/pipeline"
	"delta/internal/report"
	"delta/internal/traffic"
)

func init() {
	register("train", "Training-step model: fprop + dgrad + split-K wgrad (extension)", extTrain)
	register("explore", "Design-space Pareto frontier on ResNet152 (extension)", extExplore)
}

func extTrain(ctx context.Context, cfg Config) ([]*report.Table, error) {
	cfg = cfg.withDefaults()
	d := gpu.TitanXp()
	var tables []*report.Table
	nets := cnn.PaperSuite(cfg.Batch)
	if cfg.Quick {
		nets = nets[:1]
	}
	summary := report.NewTable("Training vs forward time per network (TITAN Xp, DeLTA predictions)",
		"network", "forward ms", "training-step ms", "bwd/fwd")
	for _, net := range nets {
		steps, total, err := pipeline.Default().Training(ctx, net, d, traffic.Options{})
		if err != nil {
			return nil, err
		}
		t := report.NewTable(
			fmt.Sprintf("Training step, %s (B=%d)", net.Name, cfg.Batch),
			"layer", "fprop ms", "dgrad ms", "wgrad ms", "splitK", "bwd/fwd")
		var fwd float64
		for i, s := range steps {
			dg := "-"
			if !s.SkipDgrad {
				dg = fmt.Sprintf("%.4g", s.Dgrad.Seconds*1e3)
			}
			t.AddRow(s.Layer.Name, s.Fprop.Seconds*1e3, dg, s.Wgrad.Seconds*1e3,
				s.WgradSplitK, s.BackwardOverForward())
			c := float64(net.Counts[i])
			fwd += s.Fprop.Seconds * c
		}
		tables = append(tables, t)
		summary.AddRow(net.Name, fwd*1e3, total*1e3, total/fwd)
	}
	return append(tables, summary), nil
}

func extExplore(ctx context.Context, cfg Config) ([]*report.Table, error) {
	cfg = cfg.withDefaults()
	batch := cfg.Batch
	if cfg.Quick {
		batch = 32
	}
	w := explore.Workload{Net: cnn.ResNet152Full(batch)}
	axes := explore.DefaultAxes()
	if cfg.Quick {
		axes = explore.Axes{MACPerSM: []float64{1, 2}, MemBW: []float64{1, 2}}
	}
	cands, err := pipeline.Default().Explore(ctx,
		w, gpu.TitanXp(), axes.Enumerate(), explore.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	front := explore.ParetoFront(cands)
	t := report.NewTable(
		fmt.Sprintf("Design-space Pareto frontier, ResNet152 on scaled TITAN Xp (%d candidates)", len(cands)),
		"cost", "speedup", "speedup/cost", "SMs", "MAC/SM", "mem BW", "SM-local")
	one := func(x float64) string {
		if x == 0 {
			x = 1
		}
		return fmt.Sprintf("%.1fx", x)
	}
	for _, c := range front {
		t.AddRow(c.Cost, c.Speedup, c.Efficiency(),
			one(c.Scale.NumSM), one(c.Scale.MACPerSM), one(c.Scale.DRAMBW), one(c.Scale.RegPerSM))
	}
	if best, ok := explore.MostEfficient(cands); ok {
		t.AddRow("== most efficient", best.Speedup, best.Efficiency(), one(best.Scale.NumSM),
			one(best.Scale.MACPerSM), one(best.Scale.DRAMBW), one(best.Scale.RegPerSM))
	}
	return []*report.Table{t}, nil
}
