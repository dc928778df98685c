package main

// ticks reads the processor's time-stamp counter. It costs about a tenth
// of time.Now (90 ns on a 2-CPU Xeon guest), so timing a span disturbs the
// work inside it far less; newTracer converts ticks to nanoseconds.
func ticks() int64
