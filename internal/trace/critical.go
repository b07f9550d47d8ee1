package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// Critical-path analysis over the span DAG. For each application timestep
// we walk the parent chain backwards from the latest-ending span of that
// step and attribute wall-clock time waterfall-style: each chain link owns
// the interval between its predecessor's end and its own end (the root
// owns its full duration). Summing those intervals per container answers
// the question the global manager's decisions hinge on: which container,
// link, or round dominates end-to-end latency.

// PathSeg is one link of a step's critical path, oldest first.
type PathSeg struct {
	Rec Record
	// Contribution is the wall-clock time this link adds to the path
	// beyond its predecessor.
	Contribution sim.Time
}

// StepPath is the reconstructed critical path of one timestep.
type StepPath struct {
	Step  int64
	Segs  []PathSeg
	Total sim.Time // End of the last segment − Start of the first
}

// ContainerCost aggregates critical-path contribution per container.
type ContainerCost struct {
	Container string
	Total     sim.Time
	Segments  int
}

// ShardCost aggregates critical-path contribution per control-plane
// shard (sharded runs label compute and round spans with a "shard"
// attribute; legacy runs produce none).
type ShardCost struct {
	Shard    string
	Total    sim.Time
	Segments int
}

// CriticalPath is the full analysis result.
type CriticalPath struct {
	Steps []StepPath // ascending by step
	Costs []ContainerCost
	// Dominant is the container with the largest aggregate contribution
	// ("" when no step-scoped spans exist).
	Dominant string
	// Shards is the per-shard contribution breakdown, largest first
	// (empty on legacy single-manager traces).
	Shards []ShardCost
	// HotShard is the shard with the largest aggregate contribution ("")
	// when the trace carries no shard labels).
	HotShard string
}

// AnalyzeCriticalPath reconstructs per-step critical paths from recs and
// aggregates container contributions. Instants never terminate a path but
// may appear as interior links.
func AnalyzeCriticalPath(recs []Record) *CriticalPath {
	byID := make(map[SpanID]Record, len(recs))
	for _, r := range recs {
		byID[r.ID] = r
	}
	// Latest-ending non-instant span of each step terminates that step's
	// path. Ties break toward the later-committed record (stable scan).
	last := map[int64]Record{}
	for _, r := range recs {
		if r.Step < 0 || r.Instant {
			continue
		}
		if cur, ok := last[r.Step]; !ok || r.End >= cur.End {
			last[r.Step] = r
		}
	}
	cp := &CriticalPath{}
	steps := make([]int64, 0, len(last))
	for s := range last {
		steps = append(steps, s)
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
	costs := map[string]*ContainerCost{}
	shardCosts := map[string]*ShardCost{}
	for _, step := range steps {
		var chain []Record
		seen := map[SpanID]bool{}
		for r, ok := last[step], true; ok && !seen[r.ID]; r, ok = byID[r.Parent] {
			seen[r.ID] = true
			chain = append(chain, r)
			if r.Parent == 0 {
				break
			}
		}
		// chain is newest-first; reverse into path order.
		for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
			chain[i], chain[j] = chain[j], chain[i]
		}
		sp := StepPath{Step: step}
		var prevEnd sim.Time
		for i, r := range chain {
			contrib := r.End - prevEnd
			if i == 0 {
				contrib = r.End - r.Start
			}
			if contrib < 0 {
				contrib = 0
			}
			sp.Segs = append(sp.Segs, PathSeg{Rec: r, Contribution: contrib})
			prevEnd = r.End
			name := r.Container
			if name == "" {
				name = "(" + r.Cat + ")"
			}
			c := costs[name]
			if c == nil {
				c = &ContainerCost{Container: name}
				costs[name] = c
			}
			c.Total += contrib
			c.Segments++
			if shard := r.Attr("shard"); shard != "" {
				sc := shardCosts[shard]
				if sc == nil {
					sc = &ShardCost{Shard: shard}
					shardCosts[shard] = sc
				}
				sc.Total += contrib
				sc.Segments++
			}
		}
		if len(sp.Segs) > 0 {
			sp.Total = sp.Segs[len(sp.Segs)-1].Rec.End - sp.Segs[0].Rec.Start
		}
		cp.Steps = append(cp.Steps, sp)
	}
	for _, c := range costs {
		cp.Costs = append(cp.Costs, *c)
	}
	sort.Slice(cp.Costs, func(i, j int) bool {
		if cp.Costs[i].Total != cp.Costs[j].Total {
			return cp.Costs[i].Total > cp.Costs[j].Total
		}
		return cp.Costs[i].Container < cp.Costs[j].Container
	})
	if len(cp.Costs) > 0 {
		cp.Dominant = cp.Costs[0].Container
	}
	for _, sc := range shardCosts {
		cp.Shards = append(cp.Shards, *sc)
	}
	sort.Slice(cp.Shards, func(i, j int) bool {
		if cp.Shards[i].Total != cp.Shards[j].Total {
			return cp.Shards[i].Total > cp.Shards[j].Total
		}
		return cp.Shards[i].Shard < cp.Shards[j].Shard
	})
	if len(cp.Shards) > 0 {
		cp.HotShard = cp.Shards[0].Shard
	}
	return cp
}

// WriteReport prints the analysis in the human format of iocontainersim
// -critical.
func (cp *CriticalPath) WriteReport(w io.Writer) error {
	if len(cp.Steps) == 0 {
		_, err := fmt.Fprintln(w, "critical path: no step-scoped spans in trace")
		return err
	}
	fmt.Fprintf(w, "critical path over %d steps\n", len(cp.Steps))
	fmt.Fprintf(w, "dominant container: %s\n\n", cp.Dominant)
	fmt.Fprintln(w, "per-container contribution:")
	for _, c := range cp.Costs {
		fmt.Fprintf(w, "  %-24s %12s  (%d segments)\n", c.Container, c.Total, c.Segments)
	}
	if cp.HotShard != "" {
		fmt.Fprintf(w, "\nhot shard: %s\n", cp.HotShard)
		fmt.Fprintln(w, "per-shard contribution:")
		for _, s := range cp.Shards {
			fmt.Fprintf(w, "  shard %-18s %12s  (%d segments)\n", s.Shard, s.Total, s.Segments)
		}
	}
	// Show the slowest step's full chain as the worked example.
	worst := cp.Steps[0]
	for _, s := range cp.Steps[1:] {
		if s.Total > worst.Total {
			worst = s
		}
	}
	fmt.Fprintf(w, "\nslowest step %d (%s end-to-end):\n", worst.Step, worst.Total)
	for _, seg := range worst.Segs {
		r := seg.Rec
		label := r.Container
		if label == "" {
			label = "(" + r.Cat + ")"
		}
		fmt.Fprintf(w, "  +%-12s %s/%s %s [id=%d]\n", seg.Contribution, r.Cat, r.Name, label, r.ID)
	}
	return nil
}
