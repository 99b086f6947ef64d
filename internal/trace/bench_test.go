package trace

import "testing"

var sinkInstr Instr

// BenchmarkSyntheticNext times one instruction of every built-in
// profile, block refills included (one in 64 calls).
func BenchmarkSyntheticNext(b *testing.B) {
	for _, name := range ProfileNames() {
		b.Run(name, func(b *testing.B) {
			g := NewSynthetic(MustProfile(name))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkInstr = g.Next()
			}
		})
	}
}

var sinkGen *Synthetic

// BenchmarkNewSynthetic times generator construction, sampler tables
// included: a quick report builds several hundred generators, so it has
// to stay in the tens of microseconds.
func BenchmarkNewSynthetic(b *testing.B) {
	for _, name := range ProfileNames() {
		b.Run(name, func(b *testing.B) {
			p := MustProfile(name)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkGen = NewSynthetic(p)
			}
		})
	}
}
