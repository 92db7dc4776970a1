// simcheck golden fixture: snapshot-coverage.
// A checkpointed class lists its members once, in a state walk that
// the writer and the reader both run, so coverage is judged on one
// effective body: the walk plus the helpers it calls, but not the
// restore hook. Analysed with every rule, so an unused waiver would
// surface too.

// A member the walk skips, and one named only in the restore hook.
class Queue
{
  public:
    template <class Ar, class Self>
    static void state(Ar &ar, Self &self);

  private:
    void afterRestore();

    unsigned long long head_ = 0;
    unsigned long long tail_ = 0; // EXPECT[snapshot-coverage]
    unsigned long long hint_ = 0; // EXPECT[snapshot-coverage]
};

template <class Ar, class Self>
void
Queue::state(Ar &ar, Self &self)
{
    ar.u64(self.head_);
    if constexpr (Ar::kLoading)
        self.afterRestore();
}

// The hook serializes nothing: naming hint_ here does not cover it.
void
Queue::afterRestore()
{
    hint_ = head_;
}

// A member reached through a helper the walk calls, and a derived
// member the hook rebuilds under a waiver that must count as used.
class Lanes
{
  public:
    template <class Ar, class Self>
    static void
    state(Ar &ar, Self &self)
    {
        ar.u64(self.width_);
        visitLanes(ar, self);
        if constexpr (Ar::kLoading)
            self.afterRestore();
    }

  private:
    template <class Ar, class Self>
    static void
    visitLanes(Ar &ar, Self &self)
    {
        ar.u64(self.lanes_);
    }

    void afterRestore() { total_ = width_ * lanes_; }

    unsigned long long width_ = 0;
    unsigned long long lanes_ = 0;
    unsigned long long total_ = 0; // SIMCHECK-ALLOW(snapshot-coverage): derived; rebuilt by afterRestore()
};

// A base class with its own walk that the derived walk never calls.
class Epoch
{
  public:
    template <class Ar, class Self>
    static void
    state(Ar &ar, Self &self)
    {
        ar.u64(self.epoch_);
    }

  protected:
    unsigned long long epoch_ = 0;
};

class Stage : public Epoch // EXPECT[snapshot-coverage]
{
  public:
    template <class Ar, class Self>
    static void
    state(Ar &ar, Self &self)
    {
        ar.u64(self.depth_);
    }

  private:
    unsigned long long depth_ = 0;
};
