// Package unusedexport is the unusedexport fixture: the functions
// unusedexport_user calls, and one case of each kind the analyzer must
// flag or let pass.
package unusedexport

import "encoding/json"

func Unused() {} // want `unusedexport\.Unused is exported but no non-test code refers to it`

// TestOnly is called only from unusedexport_test.go.
func TestOnly() int { return 1 } // want `unusedexport\.TestOnly is exported`

// Used is called by unusedexport_user.
func Used() int { return 2 }

// Map is called only through an instantiation.
func Map[T any](xs []T, f func(T) T) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// Box's Get is called only on an instantiation, Box[int].
type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

// Module implements unusedexport_api.Handler without naming it.
type Module struct{}

// Handle is reached only through unusedexport_api.Handler.
func (m *Module) Handle(n int) error { return nil }

func (m *Module) Dead() {} // want `\(\*unusedexport\.Module\)\.Dead is exported`

// Level is printed through fmt.Stringer and encoded through
// json.Marshaler.
type Level int

func (l Level) String() string { return "level" }

func (l Level) MarshalJSON() ([]byte, error) { return json.Marshal(int(l)) }

//lint:unusedexport kept to exercise the escape hatch
func Escaped() {}

// An escape without a reason suppresses nothing.
//
//lint:unusedexport
func Reasonless() {} // want `unusedexport\.Reasonless is exported`
