#ifndef RFVIEW_DB_ADMISSION_H_
#define RFVIEW_DB_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace rfv {

/// Admission control for concurrent query execution: at most
/// `max_concurrent` statements run at once; excess callers queue (FIFO
/// by condition-variable wakeup) until a slot frees. Statements run on
/// their callers' threads and start no threads of their own, so the cap
/// bounds only client threads: those beyond it park here instead of
/// contending for cores with running statements.
///
/// Observability (process-wide metrics registry):
///   rfv_admission_running        gauge — statements currently executing
///   rfv_admission_queue_depth    gauge — callers parked waiting for a slot
///   rfv_admission_waits_total    counter — admissions that had to queue
///   rfv_admission_wait_seconds   histogram — time spent queued
class AdmissionController {
 public:
  /// Default cap: unlimited would let a burst of clients oversubscribe
  /// every core; 8 matches the serving benchmark's largest client count.
  explicit AdmissionController(int max_concurrent = 8);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// RAII admission slot; releasing (destruction) wakes one queued
  /// caller.
  class Ticket {
   public:
    Ticket() = default;
    explicit Ticket(AdmissionController* controller)
        : controller_(controller) {}
    ~Ticket() { Release(); }
    Ticket(Ticket&& other) noexcept : controller_(other.controller_) {
      other.controller_ = nullptr;
    }
    Ticket& operator=(Ticket&& other) noexcept {
      if (this != &other) {
        Release();
        controller_ = other.controller_;
        other.controller_ = nullptr;
      }
      return *this;
    }
    void Release();

   private:
    AdmissionController* controller_ = nullptr;
  };

  /// Blocks until a slot is free, then occupies it for the ticket's
  /// lifetime.
  Ticket Admit();

  /// Adjusts the cap; raising it wakes queued callers. Values < 1 clamp
  /// to 1.
  void set_max_concurrent(int max_concurrent);
  int max_concurrent() const;

  /// Statements currently holding a slot.
  int64_t running() const;
  /// Callers currently parked in Admit().
  int64_t queue_depth() const;

 private:
  friend class Ticket;
  void ReleaseSlot();

  mutable std::mutex mu_;
  std::condition_variable slot_free_;
  int max_concurrent_;
  int64_t running_ = 0;
  int64_t queued_ = 0;
};

}  // namespace rfv

#endif  // RFVIEW_DB_ADMISSION_H_
