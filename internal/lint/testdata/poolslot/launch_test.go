package fixture

// Test files are exempt: tests drive the harness from raw goroutines.
func hammer(fn func()) {
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	<-done
}
