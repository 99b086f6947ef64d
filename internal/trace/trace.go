// Package trace models instruction streams for the LPM reproduction.
//
// The paper evaluates on SPEC CPU2006 reference runs (10-billion-instruction
// SimPoint samples) executed under GEM5. Neither the suite nor the
// simulator binaries are available here, so this package provides
// deterministic synthetic generators whose locality and concurrency
// characteristics reproduce the behaviours the paper relies on: bzip2's
// tiny working set, gcc's 64 KB appetite, mcf's dependent pointer chasing,
// milc's cache-oblivious streaming, bwaves' bandwidth-hungry sequential
// sweeps, and so on. See DESIGN.md §1 for the substitution argument.
//
// A Generator yields one Instr at a time; the CPU model consumes them.
// Streams are reproducible: the same profile and seed always produce the
// same trace. Traces can also be recorded to and replayed from a compact
// binary format (see Writer and Reader).
//
// # How Synthetic generates
//
// The stream is defined by per-instruction draws — RNG.Bool, Geometric
// and Zipf over the profile's constants — and Synthetic produces exactly
// that stream, 64 instructions at a time, without the float math:
//
//   - Block refill. Next pops from a block the generator owns; when it
//     is spent, refill generates the next 64 instructions in one loop
//     with the xorshift state and the profile's constants in locals.
//     The generator's state therefore runs up to 63 instructions ahead
//     of its consumer; Reset discards the unread part, so Next and Reset
//     mean what they always did and wrappers (WithOffset,
//     WithSharedRegion, Phased) need not know.
//   - Exact tables. RNG.Float64 is m/2^53 for the integer draw
//     m = Uint64()>>11, so Bool(p) is the integer compare
//     m < ceil(p·2^53), and Geometric and Zipf are non-decreasing step
//     functions of m. The stats samplers tabulate the steps — thr[k] is
//     the least m whose sample exceeds k — and each threshold is found
//     by evaluating the reference expression itself on both sides of
//     it, so a lookup returns what the expression returns whatever
//     math.Log and math.Pow round to, given only that they are monotone
//     (which the samplers' tests check around every threshold rather
//     than assume). The geometric tables stop at 128 steps; the rare
//     draw beyond takes the reference expression.
//   - No draw outside (0,1). Bool(p) consumes no draw when p <= 0 or
//     p >= 1, and the samplers keep that rule: a compute-only gap phase
//     (p = 0) or HotFrac = 1 must not advance the stream, or every later
//     instruction would change.
//
// stream_pin_test.go holds the per-instruction definition as a reference
// generator and requires Synthetic to equal it for 2^20 instructions of
// every built-in profile; testdata/stream_sha256.txt pins both.
package trace

import "fmt"

// Kind classifies an instruction.
type Kind uint8

// Instruction kinds.
const (
	// Compute is a non-memory instruction (ALU/FPU).
	Compute Kind = iota
	// Load reads memory.
	Load
	// Store writes memory.
	Store
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsMem reports whether the kind accesses memory.
func (k Kind) IsMem() bool { return k == Load || k == Store }

// Instr is one dynamic instruction.
type Instr struct {
	// Kind is the instruction class.
	Kind Kind
	// Addr is the byte address accessed (memory instructions only).
	Addr uint64
	// Dep is the backward distance, in dynamic instructions, to the
	// producer this instruction depends on; 0 means no register
	// dependence. The consumer cannot begin execution until the producer
	// completes. Dependent loads (Dep pointing at an earlier load) model
	// pointer chasing.
	Dep uint32
	// Lat is the execution latency in cycles once operands are ready
	// (compute instructions; memory instructions take their latency from
	// the memory system).
	Lat uint8
}

// Generator produces an instruction stream.
type Generator interface {
	// Name identifies the workload (e.g. "429.mcf").
	Name() string
	// Next returns the next dynamic instruction. Streams are unbounded;
	// the simulator decides when to stop.
	Next() Instr
	// Reset rewinds the stream to its beginning. After Reset the
	// generator reproduces exactly the same stream.
	Reset()
}
