package fault

// Merge combines two chaos plans into one schedule: the union of their
// one-shot events and probabilistic rates. It is how scenario-embedded
// chaos (internal/load) cross-products with an externally supplied plan —
// both fault sources ride one injector, so the combined run keeps the
// usual run-to-run bit-exactness.
//
// The merged seed is a's when b has none, b's when a has none, and the
// XOR otherwise (order-independent, and distinct from either input so a
// cross-product never silently replays one side's rate draws). Either
// argument may be nil; the result is always a fresh plan.
func Merge(a, b *Plan) *Plan {
	out := &Plan{}
	if a == nil && b == nil {
		return out
	}
	if a == nil {
		a = &Plan{}
	}
	if b == nil {
		b = &Plan{}
	}
	switch {
	case b.Seed == 0:
		out.Seed = a.Seed
	case a.Seed == 0:
		out.Seed = b.Seed
	default:
		out.Seed = a.Seed ^ b.Seed
	}
	out.Events = append(append([]Event(nil), a.Events...), b.Events...)
	out.Rates = append(append([]Rate(nil), a.Rates...), b.Rates...)
	return out
}
