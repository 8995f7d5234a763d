//go:build !amd64

package cpu

func probe() Features { return Features{} }
