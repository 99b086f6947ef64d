package lpm

import (
	"testing"

	"lpm/internal/explore"
	"lpm/internal/sched"
	"lpm/internal/sim/chip"
	"lpm/internal/sim/cpu"
	"lpm/internal/trace"
)

// TestMeasuredWindowIsInstr is the window oracle for the measured-window
// protocol (DESIGN.md §5): after the warm-up and ResetCounters, each
// instruction-unit pipeline retires instr instructions — not warm-up +
// instr — in both the detailed and the functional warm-up mode, so the
// two modes measure windows of the same length. Run halts fetch once the
// target is met (overshooting it by at most CommitWidth-1) and drains
// the ROB, so a window retires between instr and instr + ROBSize +
// CommitWidth-1.
func TestMeasuredWindowIsInstr(t *testing.T) {
	const warm, instr, workload = 20000, 5000, "429.mcf"
	prof := trace.MustProfile(workload)
	point := explore.TableConfigs()["A"]
	const l1 = 16 << 10

	pipelines := []struct {
		name string
		// run measures one window and returns its retirement count and
		// the measured core's configuration.
		run func(t *testing.T, fast bool) (uint64, cpu.Config)
	}{
		{"lpm.RunSingle", func(t *testing.T, fast bool) (uint64, cpu.Config) {
			res, err := RunSingle(bg, SingleRun{Workload: workload, Instructions: instr, Warmup: warm, WarmupFast: fast})
			if err != nil {
				t.Fatal(err)
			}
			core := res.Chip.Core(0)
			return core.Retired(), core.Config()
		}},
		{"explore.RunSimSpec", func(t *testing.T, fast bool) (uint64, cpu.Config) {
			m, err := explore.RunSimSpec(bg, explore.SimSpec{Point: point, Profile: prof,
				Instructions: instr, Warmup: warm, MaxCycles: (warm + instr) * 400,
				Observe: true, WarmupFast: fast})
			if err != nil {
				t.Fatal(err)
			}
			cfg := explore.ChipConfig(point, trace.NewSynthetic(prof))
			return m.Obs.Counter("cpu.0.instructions"), chip.New(cfg).Core(0).Config()
		}},
		// RunProfileSpec returns only (APC1, APC2, IPC), so its window is
		// read off a hand-run protocol whose IPC it must reproduce exactly.
		{"sched.RunProfileSpec", func(t *testing.T, fast bool) (uint64, cpu.Config) {
			opt := sched.ProfileOptions{Instructions: instr, Warmup: warm, WarmupFast: fast}
			got, err := sched.RunProfileSpec(bg, sched.ProfileSpec{Profile: prof, L1Size: l1, Opt: opt})
			if err != nil {
				t.Fatal(err)
			}
			ch := chip.New(chip.NUCASingle(trace.NewSynthetic(prof), l1))
			if err := ch.WarmUp(warm, chip.WarmInstructions, fast, (warm+instr)*600); err != nil {
				t.Fatal(err)
			}
			ch.ResetCounters()
			ch.Run(instr, (warm+instr)*600)
			if ipc := ch.Snapshot().Cores[0].CPU.IPC(); got[2] != ipc {
				t.Fatalf("IPC = %v, want %v (the %d-instruction window's)", got[2], ipc, instr)
			}
			return ch.Core(0).Retired(), ch.Core(0).Config()
		}},
	}
	for _, p := range pipelines {
		t.Run(p.name, func(t *testing.T) {
			for _, fast := range []bool{false, true} {
				retired, cfg := p.run(t, fast)
				hi := uint64(instr + cfg.ROBSize + cfg.CommitWidth - 1)
				if retired < instr || retired > hi {
					t.Errorf("fast=%v: window retired %d, want %d..%d", fast, retired, instr, hi)
				}
			}
		})
	}
}
