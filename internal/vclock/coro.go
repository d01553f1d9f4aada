//go:build go1.23

package vclock

import "iter"

// coroutine wraps body in a stdlib coroutine (iter.Pull). The go1.23
// constraint lifts this file's language version above the module's go line,
// which iter needs.
func coroutine(body func(yield func(struct{}) bool)) (resume func() (struct{}, bool), stop func()) {
	return iter.Pull(iter.Seq[struct{}](body))
}
