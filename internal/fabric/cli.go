package fabric

// Shard flag plumbing shared by the CLIs that can act as coordinators
// (lpmexplore, lpmreport): one flag family, one activation path, so
// every driver shards identically.

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"
)

// ShardFlags holds the parsed -shard* flag family.
type ShardFlags struct {
	// Addr is the coordinator listen address; empty disables sharding
	// entirely (the default — runs stay purely in-process).
	Addr string
	// Min makes the run wait for this many workers before simulating.
	Min int
	// Straggle is the age after which a held granule is duplicated
	// onto an idle worker; negative disables straggler re-issue.
	Straggle time.Duration
	// AddrFile, when set, receives the bound listen address — how
	// scripts using ":0" learn the port to hand their workers.
	AddrFile string
	// Journal is the path of the coordinator scheduling journal; empty
	// disables journaling.
	Journal string
	// Validate samples cross-validation: every Kth granule runs
	// redundantly on two workers. 0 disables.
	Validate int
}

// BindShardFlags registers the -shard* flags on fs.
func BindShardFlags(fs *flag.FlagSet) *ShardFlags {
	sf := &ShardFlags{}
	fs.StringVar(&sf.Addr, "shard", "", "listen address for sweep-fabric workers (e.g. 127.0.0.1:0); empty = no sharding")
	fs.IntVar(&sf.Min, "shard-min", 1, "wait for this many workers before starting (with -shard)")
	fs.DurationVar(&sf.Straggle, "shard-straggle", 0, "re-issue granules held longer than this to idle workers (0 = default 30s, negative = off)")
	fs.StringVar(&sf.AddrFile, "shard-addr-file", "", "write the bound coordinator address to this file (with -shard)")
	fs.StringVar(&sf.Journal, "shard-journal", "", "append quarantines and readmissions to this journal; a pre-existing journal is replayed on start")
	fs.IntVar(&sf.Validate, "shard-validate", 0, "cross-validate every Kth granule on two workers (0 = off)")
	return sf
}

// Start brings sharding up per the flags: starts the coordinator,
// publishes its address, activates it process-wide, and waits for the
// minimum worker count. The returned stop func tears all of it down;
// with sharding disabled it is a cheap no-op. log receives structured
// coordinator diagnostics (nil discards them).
func (sf *ShardFlags) Start(ctx context.Context, log *slog.Logger) (stop func(), err error) {
	if sf.Addr == "" {
		return func() {}, nil
	}
	c, err := Listen(sf.Addr, Options{
		StraggleAfter: sf.Straggle,
		JournalPath:   sf.Journal,
		ValidateEvery: sf.Validate,
		Log:           log,
	})
	if err != nil {
		return nil, err
	}
	if sf.AddrFile != "" {
		if err := os.WriteFile(sf.AddrFile, []byte(c.Addr()+"\n"), 0o644); err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("fabric: publish coordinator address: %w", err)
		}
	}
	if log != nil {
		log.Info("fabric: coordinator listening", "addr", c.Addr())
	}
	restore := Activate(c)
	if sf.Min > 0 {
		if err := c.WaitWorkers(ctx, sf.Min); err != nil {
			restore()
			_ = c.Close()
			return nil, err
		}
	}
	return func() {
		restore()
		_ = c.Close()
	}, nil
}
