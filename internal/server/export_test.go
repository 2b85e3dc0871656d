package server

// InflightLen reports how many prompts the in-flight table holds.
func (s *Server) InflightLen() int { return s.inflight.Len() }

// InflightWaiting reports how many prompts wait on an in-flight one.
func (s *Server) InflightWaiting() int { return s.inflight.Waiting() }
