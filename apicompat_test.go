package joinopt

import "context"

// Compile-time API pins: an accidental signature drift of the client surface
// in a refactor breaks this file — and with it the CI "API surface" step —
// before it breaks any downstream user.
var (
	_ func() ([]byte, error)                                                       = (*Future)(nil).WaitErr
	_ func(string) *Table                                                          = (*Client)(nil).Table
	_ func(context.Context, string, []byte, ...CallOption) *Future                 = (*Table)(nil).Submit
	_ func(context.Context, string, []byte, ...CallOption) ([]byte, error)         = (*Table)(nil).Call
	_ func(context.Context) ([]byte, error)                                        = (*Future)(nil).WaitCtx
	_ func(context.Context, string, string, []byte, ...CallOption) ([]byte, error) = (*Client)(nil).CallCtx

	// Per-call options.
	_ CallOption = WithRoute(Auto)
	_ CallOption = WithRoute(ForceFetch)
	_ CallOption = WithRoute(ForceCompute)
	_ CallOption = WithNoCache()

	// Error codes.
	_ = [...]ErrCode{ErrServer, ErrTransport, ErrTimeout, ErrClosed, ErrCanceled}

	// Wire batches by flush cause.
	_ = Stats{SizeFlushes: 0, WaiterFlushes: 0, CompletionFlushes: 0, TimerFlushes: 0}
)
