package cc_test

import (
	"testing"

	"repro/internal/cc"
)

// FuzzParse fuzzes the mcc front end, the decoder every .mc source goes
// through. Parse must return an error or a program, never panic, and a
// source that parses must compile at O0 and at O2 to an error or an image.
// The committed corpus holds the mcc sources of histogram, ck_mcs and
// memcached_like.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		"func main() { return 0; }",
		"extern print_i64;\nvar g[4];\nfunc main() { g[1] = 7; print_i64(g[1] * 6); return 0; }",
		"func f(a, b) { if (a < b) { return a; } return b; }\nfunc main() { var i; for (i = 0; i < 3; i = i + 1) { } return f(i, 2); }",
		"func main() { var x = 0; atomic_add(&x, 1); fence(); return atomic_cas(&x, 1, 2) + xchg(&x, 5); }",
		"func main() { return (1 + ; }",
		"var s = \"unterminated",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := cc.Parse(src)
		if err != nil {
			return
		}
		if prog == nil {
			t.Fatal("Parse returned neither a program nor an error")
		}
		for _, opt := range []int{0, 2} {
			img, _, err := cc.Compile(src, cc.Config{Name: "fuzz", Opt: opt})
			if err == nil && img == nil {
				t.Fatalf("O%d: Compile returned neither an image nor an error", opt)
			}
		}
	})
}
