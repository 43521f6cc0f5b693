//go:build go1.23

package simclock

import "iter"

// pull turns body into a coroutine: resume runs it until it yields or
// returns, and stop makes a pending yield return false.
func pull(body func(yield func(struct{}) bool)) (resume func() (struct{}, bool), stop func()) {
	return iter.Pull(body)
}
