package experiments

import (
	"fmt"

	"autopipe/internal/config"
	"autopipe/internal/slicer"
	"autopipe/internal/tableio"
)

// TelemetryRecord is one model's planner search-effort measurement: how hard
// the Planner (Algorithm 1 + heuristic refinement) and the Slicer
// (Algorithm 2) worked to produce the plan, and what they predicted for it.
// It backs the paper's search-cost argument (§IV-D, Fig. 12): AutoPipe's
// planning effort is a handful of simulator evaluations, not an exhaustive
// sweep.
type TelemetryRecord struct {
	Model string
	Depth int
	Micro int
	// Candidates/Accepted/Convergence summarize the partition search.
	Candidates int
	Accepted   int
	// FirstIter and FinalIter bracket the convergence curve: the Algorithm 1
	// seed's predicted iteration time and the best found, in seconds.
	FirstIter float64
	FinalIter float64
	// SeedSeconds/AdjustSeconds/MoveSeconds are the per-phase wall-clock of
	// the search.
	SeedSeconds   float64
	AdjustSeconds float64
	MoveSeconds   float64
	// NumSliced/SliceRounds/SliceConverged summarize the Algorithm 2 run on
	// the winning partition.
	NumSliced      int
	SliceRounds    int
	SliceConverged bool
}

// PlannerTelemetry runs the fixed-depth planner for the paper's evaluation
// models and reports its search telemetry per model.
func (e Env) PlannerTelemetry() ([]TelemetryRecord, *tableio.Table, error) {
	cases := []struct {
		mc    config.Model
		depth int
		mbs   int
		m     int
	}{
		{config.GPT2_345M(), 4, 4, 16},
		{config.GPT2_762M(), 4, 4, 16},
		{config.BERTLarge(), 4, 4, 16},
	}
	var records []TelemetryRecord
	for _, c := range cases {
		bl, err := e.buildSub(c.mc, c.mbs)
		if err != nil {
			return nil, nil, err
		}
		res, err := e.planDepth(bl, c.depth, c.m)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: planning %s: %w", c.mc.Name, err)
		}
		tel := res.Telemetry
		rec := TelemetryRecord{
			Model:         c.mc.Name,
			Depth:         c.depth,
			Micro:         c.m,
			Candidates:    tel.Candidates,
			Accepted:      tel.Accepted,
			FinalIter:     tel.Final,
			SeedSeconds:   tel.SeedTime.Seconds(),
			AdjustSeconds: tel.AdjustTime.Seconds(),
			MoveSeconds:   tel.MoveTime.Seconds(),
		}
		if len(tel.Convergence) > 0 {
			rec.FirstIter = tel.Convergence[0]
		}
		sp, err := slicer.SolveProfile(res.Best.Partition.Profile(bl, c.m))
		if err != nil {
			return nil, nil, err
		}
		rec.NumSliced = sp.NumSliced
		rec.SliceRounds = sp.Rounds
		rec.SliceConverged = sp.Converged
		records = append(records, rec)
	}

	t := &tableio.Table{
		ID:    "telemetry",
		Title: "Planner and Slicer search telemetry (beyond the paper; effort behind Fig. 12)",
		Columns: []string{"Model", "Depth", "Micro", "Candidates", "Accepted",
			"Seed iter (ms)", "Final iter (ms)", "NumSliced", "Slice rounds", "Slice converged"},
	}
	for _, r := range records {
		t.AddRowf(r.Model, r.Depth, r.Micro, r.Candidates, r.Accepted,
			fmt.Sprintf("%.1f", r.FirstIter*1e3), fmt.Sprintf("%.1f", r.FinalIter*1e3),
			r.NumSliced, r.SliceRounds, r.SliceConverged)
	}
	t.Note("Candidates = partition schemes the analytic simulator evaluated; Accepted = evaluations that improved the incumbent.")
	t.Note("Final iter is predicted (simulated) time for one pipeline, before the data-parallel all-reduce.")
	return records, t, nil
}
