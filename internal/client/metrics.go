package client

// Hooks receives uploader events for instrumentation. All fields are
// optional; nil funcs are skipped. The Uploader is single-threaded,
// so hooks fire from the sensing loop's goroutine and must not block —
// a slow hook delays the next sensing cycle exactly like slow I/O
// would on the phone.
type Hooks struct {
	// Recorded fires for each observation accepted by Record.
	Recorded func()
	// Attempt fires when the policy calls for an emission attempt
	// (after ShouldEmit, before connectivity/bearer checks).
	Attempt func()
	// Sent fires after a successful emission with the batch size.
	Sent func(batch int)
	// Failed fires when an emission attempt fails — no connectivity
	// or a transport error — leaving the batch queued.
	Failed func()
	// Deferred fires when DeferToWiFi holds an emission back on a
	// cellular bearer.
	Deferred func()
	// Retried fires for attempts made under the "sent at the next
	// cycle" rule, i.e. a prior attempt had failed or been deferred.
	Retried func()
}

// SetHooks installs hooks. Like the rest of the Uploader it must be
// called from the owning goroutine.
func (u *Uploader) SetHooks(h Hooks) {
	u.hooks = h
}
