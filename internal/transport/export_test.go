package transport

import (
	"errors"
	"net"
)

// IsTimeout reports whether err is a receive-timeout from either Conn
// implementation.
func IsTimeout(err error) bool {
	if errors.Is(err, ErrRecvTimeout) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
