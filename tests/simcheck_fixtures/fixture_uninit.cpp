// simcheck golden fixture: uninit-member.
// A snapshot-bearing class with one scalar field that neither has an
// in-class initializer nor is covered by every constructor's init
// list. Restoring a snapshot into a freshly constructed object would
// leave that field holding garbage that the restore may never
// overwrite.
class Counter
{
  public:
    Counter() : ticks_(0) {}
    explicit Counter(int start) : ticks_(start) {}

    template <class Ar, class Self>
    static void state(Ar &ar, Self &self);

  private:
    unsigned long long ticks_; // covered by both ctor init lists
    int stall_count_; // EXPECT[uninit-member]
    double util_ = 0.0; // in-class initializer
};
