// Package unusedexport_api declares an interface that a type in
// another fixture package implements without naming it.
package unusedexport_api

// Handler is implemented by unusedexport.Module.
type Handler interface {
	Handle(n int) error
}

// Dispatch calls h through the interface.
func Dispatch(h Handler) error { return h.Handle(1) }
