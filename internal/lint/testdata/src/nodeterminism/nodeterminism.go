// Package nodeterminism exercises the wall-clock, math/rand and
// pointer-formatting checks.
// Its import path has no camsim/internal prefix, so map iteration is NOT
// flagged here (see camsim/internal/simfix for that half).
package nodeterminism

import (
	"fmt"
	"math/rand" // want "import of math/rand: streams are not stable"
	"time"
)

type buf struct{ id int }

func wallClock() float64 {
	start := time.Now()                // want "wall-clock time.Now leaks host time"
	time.Sleep(time.Millisecond)       // want "wall-clock time.Sleep"
	<-time.After(time.Nanosecond)      // want "wall-clock time.After"
	return time.Since(start).Seconds() // want "wall-clock time.Since"
}

func allowed() time.Time {
	return time.Now() //camlint:allow nodeterminism -- fixture proves the escape hatch
}

func allowedAbove() time.Time {
	//camlint:allow nodeterminism -- directive on the preceding line also covers this
	return time.Now()
}

func randStream() int {
	return rand.Int()
}

// pointerNames are the PR 5 bug: a buffer named after its own address.
func pointerNames(b *buf) (string, string) {
	return fmt.Sprintf("buf.%p", b), // want "fmt.Sprintf formats a pointer"
		fmt.Sprint("buf.", b) // want "fmt.Sprint formats a pointer"
}

func pointerNameAllowed(b *buf) string {
	return fmt.Sprintf("dbg.%p", b) //camlint:allow nodeterminism -- fixture: debug-only name, suppressed
}

// stableName formats the value, not the address.
func stableName(b *buf) string {
	return fmt.Sprintf("buf.%d", b.id)
}

// Negative cases: time.Duration as a plain type and map iteration outside
// the simulation substrate are both fine.
func negatives(timeout time.Duration, m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total + int(timeout)
}
