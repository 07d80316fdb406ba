package mem

// CheckWholeSet makes s compare, after every reschedule, each active
// flow's rate with a solve of the whole active set, and call fail with the
// first flow whose rate differs in any bit. It returns the count of
// reschedules checked so far.
func CheckWholeSet(s *System, fail func(error)) func() int {
	var o oracle
	checked := 0
	s.onReschedule = func() {
		checked++
		if err := o.wholeSetMismatch(s); err != nil {
			fail(err)
		}
	}
	return func() int { return checked }
}
