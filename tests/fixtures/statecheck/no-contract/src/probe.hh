// Planted violation: a Clocked component with neither half of the
// contract. tick() mutates samples_, yet Probe has no serializeState
// (its state would vanish from checkpoints) and no declareOwnership (it
// is invisible to the shard-safety analysis).
// Expected findings: unserialized-member, undeclared-tick-mutation.
#ifndef FIXTURE_PROBE_HH
#define FIXTURE_PROBE_HH

class Probe : public Clocked
{
  public:
    void tick(Cycle now) override;

  private:
    long samples_ = 0;
};

#endif
