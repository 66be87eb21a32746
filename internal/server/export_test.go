package server

import (
	"cqa/internal/engine"
	"cqa/internal/metrics"
)

// Registry exposes the server's metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Engine exposes the serving engine (for stats and shutdown).
func (s *Server) Engine() *engine.Engine { return s.eng }
