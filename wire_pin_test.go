package lpm_test

// Wire and checkpoint compatibility pins. A memo key is the identity of
// a simulation result in three places — the in-process memo, every
// -checkpoint file on disk, and the sweep fabric's result cache — and
// parallel.KeyOf renders its parts with %#v, so moving or renaming a
// spec field silently cold-starts every existing checkpoint. The JSON
// encodings are what crosses the wire to lpmworker and lpmserve. Both
// are pinned to the values the code before the single-window-protocol
// refactor produced; a deliberate break updates the literals here and
// says so in CHANGES.md.

import (
	"encoding/json"
	"testing"

	"lpm/internal/ctrl"
	"lpm/internal/explore"
	"lpm/internal/sched"
	"lpm/internal/trace"
)

// pinProfile and pinPoint are fixed literals (not built-in profiles or
// Table I rows), so retuning a workload does not trip the pin — only a
// change to how a spec renders into its key does.
var (
	pinProfile = trace.Profile{Name: "pin", MemFrac: 0.4, StoreFrac: 0.25, Footprint: 1 << 20,
		HotBytes: 4096, HotFrac: 0.5, SeqFrac: 0.125, Stride: 8, ChaseFrac: 0.0625, DepDist: 3,
		ExecLat: 1.5, BurstLen: 100, GapLen: 50, Seed: 7}
	pinPoint = explore.Point{IssueWidth: 4, IWSize: 32, ROBSize: 64, L1Ports: 2, MSHRs: 8, L2Banks: 4}
)

func pinnedSpecs(fast bool) (explore.SimSpec, sched.ProfileSpec, sched.AloneSpec) {
	return explore.SimSpec{Point: pinPoint, Profile: pinProfile, Instructions: 15000, Warmup: 140000,
			MaxCycles: 62000000, Observe: true, Timeline: true, TimelineWindow: 512,
			WarmupFast: fast, WatchdogCycles: 7},
		sched.ProfileSpec{Profile: pinProfile, L1Size: 64 << 10,
			Opt: sched.ProfileOptions{Instructions: 15000, Warmup: 140000, MaxCycles: 9000000, WarmupFast: fast}},
		sched.AloneSpec{Profile: pinProfile, RefL1: 64 << 10, WindowCycles: 80000, WarmupCycles: 40000, WarmupFast: fast}
}

func TestMemoKeysPinned(t *testing.T) {
	want := map[bool][3]string{
		false: {
			"\"explore.simulate\"\x1fexplore.Point{IssueWidth:4, IWSize:32, ROBSize:64, L1Ports:2, MSHRs:8, L2Banks:4}\x1ftrace.Profile{Name:\"pin\", MemFrac:0.4, StoreFrac:0.25, Footprint:0x100000, HotBytes:0x1000, HotFrac:0.5, SeqFrac:0.125, Stride:0x8, ChaseFrac:0.0625, DepDist:3, ExecLat:1.5, BurstLen:100, GapLen:50, Seed:0x7}\x1f0x3a98\x1f0x222e0\x1f0x3b20b80\x1ftrue\x1ftrue\x1f0x200\x1ffalse\x1f",
			"\"sched.profileOne\"\x1ftrace.Profile{Name:\"pin\", MemFrac:0.4, StoreFrac:0.25, Footprint:0x100000, HotBytes:0x1000, HotFrac:0.5, SeqFrac:0.125, Stride:0x8, ChaseFrac:0.0625, DepDist:3, ExecLat:1.5, BurstLen:100, GapLen:50, Seed:0x7}\x1f0x10000\x1fsched.ProfileOptions{Instructions:0x3a98, Warmup:0x222e0, MaxCycles:0x895440, WarmupFast:false}\x1f",
			"\"sched.alone\"\x1ftrace.Profile{Name:\"pin\", MemFrac:0.4, StoreFrac:0.25, Footprint:0x100000, HotBytes:0x1000, HotFrac:0.5, SeqFrac:0.125, Stride:0x8, ChaseFrac:0.0625, DepDist:3, ExecLat:1.5, BurstLen:100, GapLen:50, Seed:0x7}\x1f0x10000\x1f0x13880\x1f0x9c40\x1ffalse\x1f",
		},
		true: {
			"\"explore.simulate\"\x1fexplore.Point{IssueWidth:4, IWSize:32, ROBSize:64, L1Ports:2, MSHRs:8, L2Banks:4}\x1ftrace.Profile{Name:\"pin\", MemFrac:0.4, StoreFrac:0.25, Footprint:0x100000, HotBytes:0x1000, HotFrac:0.5, SeqFrac:0.125, Stride:0x8, ChaseFrac:0.0625, DepDist:3, ExecLat:1.5, BurstLen:100, GapLen:50, Seed:0x7}\x1f0x3a98\x1f0x222e0\x1f0x3b20b80\x1ftrue\x1ftrue\x1f0x200\x1ftrue\x1f",
			"\"sched.profileOne\"\x1ftrace.Profile{Name:\"pin\", MemFrac:0.4, StoreFrac:0.25, Footprint:0x100000, HotBytes:0x1000, HotFrac:0.5, SeqFrac:0.125, Stride:0x8, ChaseFrac:0.0625, DepDist:3, ExecLat:1.5, BurstLen:100, GapLen:50, Seed:0x7}\x1f0x10000\x1fsched.ProfileOptions{Instructions:0x3a98, Warmup:0x222e0, MaxCycles:0x895440, WarmupFast:true}\x1f",
			"\"sched.alone\"\x1ftrace.Profile{Name:\"pin\", MemFrac:0.4, StoreFrac:0.25, Footprint:0x100000, HotBytes:0x1000, HotFrac:0.5, SeqFrac:0.125, Stride:0x8, ChaseFrac:0.0625, DepDist:3, ExecLat:1.5, BurstLen:100, GapLen:50, Seed:0x7}\x1f0x10000\x1f0x13880\x1f0x9c40\x1ftrue\x1f",
		},
	}
	for _, fast := range []bool{false, true} {
		sim, prof, alone := pinnedSpecs(fast)
		got := [3]string{sim.MemoKey(), prof.MemoKey(), alone.MemoKey()}
		for i, name := range []string{"explore.SimSpec", "sched.ProfileSpec", "sched.AloneSpec"} {
			if got[i] != want[fast][i] {
				t.Errorf("%s (WarmupFast=%v) memo key changed — existing checkpoints would cold-start:\n got %q\nwant %q",
					name, fast, got[i], want[fast][i])
			}
		}
	}
}

func TestSpecJSONPinned(t *testing.T) {
	sim, prof, alone := pinnedSpecs(true)
	run := ctrl.RunSpec{Tenant: "acme", Workload: "429.mcf", Instructions: 1, Warmup: 2,
		WarmupFast: true, TSWindow: 3, Watchdog: 4}
	for _, c := range []struct {
		name string
		spec any
		want string
	}{
		{"explore.SimSpec", sim, `{"Point":{"IssueWidth":4,"IWSize":32,"ROBSize":64,"L1Ports":2,"MSHRs":8,"L2Banks":4},"Profile":{"Name":"pin","MemFrac":0.4,"StoreFrac":0.25,"Footprint":1048576,"HotBytes":4096,"HotFrac":0.5,"SeqFrac":0.125,"Stride":8,"ChaseFrac":0.0625,"DepDist":3,"ExecLat":1.5,"BurstLen":100,"GapLen":50,"Seed":7},"Instructions":15000,"Warmup":140000,"MaxCycles":62000000,"Observe":true,"Timeline":true,"TimelineWindow":512,"WarmupFast":true,"WatchdogCycles":7}`},
		{"sched.ProfileSpec", prof, `{"Profile":{"Name":"pin","MemFrac":0.4,"StoreFrac":0.25,"Footprint":1048576,"HotBytes":4096,"HotFrac":0.5,"SeqFrac":0.125,"Stride":8,"ChaseFrac":0.0625,"DepDist":3,"ExecLat":1.5,"BurstLen":100,"GapLen":50,"Seed":7},"L1Size":65536,"Opt":{"Instructions":15000,"Warmup":140000,"MaxCycles":9000000,"WarmupFast":true}}`},
		{"sched.AloneSpec", alone, `{"Profile":{"Name":"pin","MemFrac":0.4,"StoreFrac":0.25,"Footprint":1048576,"HotBytes":4096,"HotFrac":0.5,"SeqFrac":0.125,"Stride":8,"ChaseFrac":0.0625,"DepDist":3,"ExecLat":1.5,"BurstLen":100,"GapLen":50,"Seed":7},"RefL1":65536,"WindowCycles":80000,"WarmupCycles":40000,"WarmupFast":true}`},
		{"ctrl.RunSpec", run, `{"tenant":"acme","workload":"429.mcf","instructions":1,"warmup":2,"warmup_fast":true,"ts_window":3,"watchdog":4}`},
	} {
		got, err := json.Marshal(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("%s wire encoding changed — parent-built workers and servers would not interoperate:\n got %s\nwant %s",
				c.name, got, c.want)
		}
	}
}
