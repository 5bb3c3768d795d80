package nic

// The one-NIC topologies the tests drive, each one endpoint run by
// RunExchange: a receive batch, a send batch whose sends leave into the
// unmodeled fabric, and coupled transfers whose sends pace the same
// endpoint's receives.

func recvTopology(cfg Config, msgs []BatchMessage, workers int) ([]Result, error) {
	res, err := RunExchange([]ExchangeEndpoint{{Cfg: cfg, Recvs: msgs}}, workers)
	if err != nil {
		return nil, err
	}
	return res.Recvs[0], nil
}

func sendTopology(cfg Config, msgs []TxMessage, workers int) ([]SendResult, error) {
	sends := make([]ExchangeSend, len(msgs))
	for i := range msgs {
		sends[i] = ExchangeSend{Msg: msgs[i], Dst: -1}
	}
	res, err := RunExchange([]ExchangeEndpoint{{Cfg: cfg, Sends: sends}}, workers)
	if err != nil {
		return nil, err
	}
	return res.Sends[0], nil
}

func coupledTopology(cfg Config, txs []TxMessage, rxs []BatchMessage, workers int) ([]SendResult, []Result, error) {
	sends := make([]ExchangeSend, len(txs))
	for i := range txs {
		sends[i] = ExchangeSend{Msg: txs[i], Dst: 0, DstRecv: i}
	}
	res, err := RunExchange([]ExchangeEndpoint{{Cfg: cfg, Recvs: rxs, Sends: sends}}, workers)
	if err != nil {
		return nil, nil, err
	}
	return res.Sends[0], res.Recvs[0], nil
}
