// Package exec is the fixture stub of repro/internal/exec: the same
// type and method names the analyzers key on, with trivial bodies.
package exec

type Arena struct{}

func (a *Arena) Floats(n int) []float64     { return make([]float64, n) }
func (a *Arena) FloatsZero(n int) []float64 { return make([]float64, n) }
func (a *Arena) Ints(n int) []int           { return make([]int, n) }
func (a *Arena) Int64s(n int) []int64       { return make([]int64, n) }
func (a *Arena) Strings(n int) []string     { return make([]string, n) }
func (a *Arena) FreeFloats(f []float64)     {}
func (a *Arena) FreeInts(idx []int)         {}
func (a *Arena) FreeInt64s(xs []int64)      {}
func (a *Arena) FreeStrings(ss []string)    {}
func (a *Arena) Close()                     {}

func Shared() *Arena { return &shared }

var shared Arena

type Ctx struct{ arena Arena }

func Default() *Ctx { return &defaultCtx }

var defaultCtx Ctx

func (c *Ctx) Arena() *Arena { return &c.arena }
func (c *Ctx) Workers() int  { return 1 }
func (c *Ctx) Serial(n int) bool {
	return true
}
func (c *Ctx) ParallelFor(n, minWork int, body func(lo, hi int)) { body(0, n) }
func (c *Ctx) Reduce(n int, partial func(lo, hi int) float64) float64 {
	return partial(0, n)
}

func CatchBudget(err *error) {}
