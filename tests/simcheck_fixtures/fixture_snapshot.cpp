// simcheck golden fixture: snapshot-coverage.
// One field is serialized on both sides, one only on the restore
// side — the classic asymmetry a textual union of the two bodies
// cannot see.
class SnapshotWriter
{
  public:
    void u64(unsigned long long v);
};

class SnapshotReader
{
  public:
    unsigned long long u64();
};

class Queue
{
  public:
    void snapshot(SnapshotWriter &w) const;
    void restore(SnapshotReader &r);

  private:
    unsigned long long head_ = 0;
    unsigned long long tail_ = 0; // EXPECT[snapshot-coverage]
};

void
Queue::snapshot(SnapshotWriter &w) const
{
    w.u64(head_);
}

void
Queue::restore(SnapshotReader &r)
{
    head_ = r.u64();
    tail_ = r.u64();
}
